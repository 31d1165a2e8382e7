import itertools
import json
import random
import sys
import threading
from itertools import chain
from operator import le

import pytest

from leaf_atlas import cells, leaves
from leaf_atlas.exact_matrix import (NORTHEAST, SOUTHWEST, RationalMatrix, from_text,
                                     interval_column_ranks, interval_row_ranks, rank,
                                     rank_profile, sample_rank)
from leaf_atlas.harness import sample_stream
from leaf_atlas.leaves import (LeafIndex, classify_leaf, closure_leq,
                               enumerate_leaves, hasse, hasse_dot, in_leaf,
                               leaf_profile, rank_of_index, window_ok)
from leaf_atlas.permutations import (block_longest, bruhat_leq, longest, min_reps_first,
                                     min_reps_last)
from perm_oracles import block_split, left_compose, rank_count, right_compose, transpose


def shapes(max_size):
    return [(m, s - m) for s in range(2, max_size + 1) for m in range(1, s)]


def test_enumeration_counts():
    assert len(enumerate_leaves(1, 1)) == 2
    assert len(enumerate_leaves(2, 1)) == 4
    assert len(enumerate_leaves(1, 2)) == 4
    assert len(enumerate_leaves(2, 2)) == 14


def test_enumeration_order_and_window():
    out = enumerate_leaves(2, 2)
    assert [L.w for L in out] == sorted(L.w for L in out)
    assert all(window_ok(L.w, 2, 2) for L in out)
    assert enumerate_leaves(1, 1)[0].w == (1, 2)


def test_window_equals_bruhat_condition():
    for m, n in [(1, 1), (2, 1), (1, 3), (2, 2), (3, 2)]:
        base = block_longest(n, m)
        from leaf_atlas.permutations import all_perms
        window = {w for w in all_perms(m + n) if window_ok(w, m, n)}
        bruhat = {w for w in all_perms(m + n) if bruhat_leq(base, w)}
        assert window == bruhat


def test_enumeration_matches_filtered_scan():
    for m, n in shapes(8):
        scan = [w for w in itertools.permutations(range(1, m + n + 1)) if window_ok(w, m, n)]
        assert [L.w for L in enumerate_leaves(m, n)] == scan
        for t in range(min(m, n) + 1):
            assert ([L.w for L in enumerate_leaves(m, n, t)]
                    == [w for w in scan if rank_of_index(w, n) == t])


@pytest.mark.parametrize("m, n", [(4, 5), (5, 4), (1, 8), (8, 1)])
def test_rank_filter_keeps_the_unfiltered_order(m, n):
    # The rank window prunes both the prefixes built first and their
    # completions: 4x5 and 5x4 rank positions on both sides of the split,
    # 1x8 every position but the last, 8x1 only the first.
    everything = enumerate_leaves(m, n)
    for t in range(min(m, n) + 1):
        assert enumerate_leaves(m, n, t) == [L for L in everything if L.t == t]


# 1xn fills position n-1 < n in the step that fills the last two positions
@pytest.mark.parametrize("m, n", shapes(8) + [(4, 5), (5, 4)])
def test_walk_carries_the_derived_rank_and_dimension(m, n):
    walk = list(leaves._walk(m, n))
    assert walk == [(L.w, L.t, L.dim) for L in enumerate_leaves(m, n)]
    for t in range(min(m, n) + 1):
        assert list(leaves._walk(m, n, t)) == [q for q in walk if q[1] == t]


# 5x5: the only shape past the filtered scan's reach, 329,462 strata
@pytest.mark.parametrize("m, n", shapes(9) + [(5, 5)])
def test_walk_rank_counts_equal_the_closed_form(m, n):
    expected = [rank_count(m, n, t) for t in range(min(m, n) + 1)]
    assert [sum(1 for _ in leaves._walk(m, n, t)) for t in range(min(m, n) + 1)] == expected
    assert sum(1 for _ in leaves._walk(m, n)) == sum(expected)
    assert (m, n) != (5, 5) or sum(expected) == 329_462


def test_rank_counts_equal_quadruple_factors():
    # Independent count: rank-t strata correspond to pairs (y, z) in S_m and
    # (v, u) in S_n of minimal coset representatives with z <= y and v <= u.
    for m, n in [(3, 4), (4, 3), (5, 5)]:
        for t in range(min(m, n) + 1):
            yz = sum(1 for y in min_reps_last(m, m - t) for z in min_reps_first(m, t)
                     if bruhat_leq(z, y))
            vu = sum(1 for v in min_reps_first(n, t) for u in min_reps_last(n, n - t)
                     if bruhat_leq(v, u))
            assert len(enumerate_leaves(m, n, t)) == yz * vu


def test_rank_filter_partitions():
    total = enumerate_leaves(3, 2)
    by_rank = [enumerate_leaves(3, 2, t) for t in range(3)]
    assert sum(len(b) for b in by_rank) == len(total)
    for t, batch in enumerate(by_rank):
        assert all(L.t == t for L in batch)


def test_leaf_index_validation():
    with pytest.raises(ValueError):
        LeafIndex.from_w((1, 2, 3), 2, 1)  # s(3)=3 breaks the window
    with pytest.raises(ValueError):
        LeafIndex((2, 1), 1, 2)            # size disagrees with m+n
    with pytest.raises(ValueError, match=r"^not a permutation of 1\.\.3: \(1, 1, 2\)$"):
        LeafIndex.from_w([1, 1, 2], 1, 2)


def test_from_w_checks_the_permutation_once(monkeypatch):
    seen = []
    real = leaves.check_perm
    monkeypatch.setattr(leaves, "check_perm", lambda w: seen.append(w) or real(w))
    assert LeafIndex.from_w([2, 1], 1, 1).w == (2, 1)
    assert seen == [(2, 1)]


def test_enumerated_indices_equal_validated_ones():
    # the enumerator builds its indices unchecked
    for m, n in shapes(7):
        for L in enumerate_leaves(m, n):
            checked = LeafIndex.from_w(L.w, m, n)
            assert L == checked and hash(L) == hash(checked) and type(L.w) is tuple


def test_one_by_one_membership():
    zero = RationalMatrix.zero(1, 1)
    five = RationalMatrix([[5]])
    ident = LeafIndex.from_w((1, 2), 1, 1)
    trans = LeafIndex.from_w((2, 1), 1, 1)
    assert in_leaf(zero, ident) and not in_leaf(zero, trans)
    assert in_leaf(five, trans) and not in_leaf(five, ident)
    assert classify_leaf(zero) == ident and ident.dim == 0
    assert classify_leaf(five) == trans and trans.dim == 1


def test_rank_one_example_membership():
    L = LeafIndex.from_w((6, 2, 3, 5, 4, 1), 3, 3)
    assert (L.t, L.dim) == (1, 4)
    good = RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]])
    assert in_leaf(good, L, "cell")
    assert classify_leaf(good) == L
    bad = RationalMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])  # middle column nonzero
    assert not in_leaf(bad, L, "cell")
    mid_row_zero = RationalMatrix([[1, 0, 2], [0, 0, 0], [2, 0, 4]])
    assert not in_leaf(mid_row_zero, L, "cell")
    assert in_leaf(mid_row_zero, L, "closure")


def test_generic_square_matrix_is_dense_orbit():
    rng = random.Random(12)
    for _ in range(20):
        x = sample_rank(2, 2, 2, rng)
        L = classify_leaf(x)
        if rank(x) == 2 and all(e != 0 for row in x.entries for e in row):
            assert L.w == (4, 3, 2, 1) or L.dim <= 4
    # a concrete generic invertible matrix
    x = RationalMatrix([[1, 2], [3, 4]])
    L = classify_leaf(x)
    assert L.w == longest(4) and L.dim == 4


def test_membership_equals_classification_exhaustive_2x2():
    rng = random.Random(7)
    leaves = enumerate_leaves(2, 2)
    for i in range(150):
        x = sample_rank(2, 2, i % 3, rng)
        L0 = classify_leaf(x)
        for L in leaves:
            assert in_leaf(x, L, "cell") == (L == L0)


def test_closure_equals_bruhat_exhaustive_2x2():
    rng = random.Random(8)
    leaves = enumerate_leaves(2, 2)
    for i in range(100):
        x = sample_rank(2, 2, i % 3, rng)
        L0 = classify_leaf(x)
        for L in leaves:
            assert in_leaf(x, L, "closure") == bruhat_leq(L0.w, L.w)


def kernel_tables(x):
    """The four tables of ``x`` straight from the kernels, as ``leaf_profile`` lays them out."""
    return leaves.LeafTables(rank_profile(x, SOUTHWEST), rank_profile(x, NORTHEAST),
                             tuple(map(tuple, interval_column_ranks(x))),
                             tuple(map(tuple, interval_row_ranks(x))))


def test_each_matrix_keeps_its_own_tables():
    xs = list(sample_stream(3, 4, 30, random.Random(11)))
    for x in xs:
        assert leaf_profile(x) is leaf_profile(x)
    for x in xs:
        assert leaf_profile(x) == kernel_tables(x), x


def test_two_in_leaf_calls_count_the_tables_once(monkeypatch):
    calls = []

    def counted(name):
        kernel = getattr(leaves, name)

        def wrapper(x, *args):
            calls.append((name, *args))
            return kernel(x, *args)
        return wrapper

    for name in ("rank_profile", "interval_column_ranks", "interval_row_ranks"):
        monkeypatch.setattr(leaves, name, counted(name))
    x = sample_rank(3, 4, 2, 12)
    L0 = classify_leaf(x)
    # an equal matrix made afresh keeps no tables, so it counts its own once
    for y in (x, from_text(x.to_text())):
        calls.clear()
        assert in_leaf(y, L0, "cell") and in_leaf(y, L0, "closure")
        assert sorted(calls) == [("interval_column_ranks",), ("interval_row_ranks",),
                                 ("rank_profile", NORTHEAST), ("rank_profile", SOUTHWEST)]


def test_kept_tables_leave_equality_and_hashing_alone():
    for x in sample_stream(3, 3, 30, random.Random(13)):
        tables = leaf_profile(x)
        fresh = from_text(x.to_text())
        assert fresh._tables is None
        assert x == fresh and hash(x) == hash(fresh)
        assert leaf_profile(fresh) == tables and leaf_profile(fresh) is not tables
        assert x == fresh and hash(x) == hash(fresh)  # now both keep tables


def test_threads_racing_to_fill_the_tables_all_read_the_kernels_tables():
    # the fill is check-then-write without a lock: safe only because every
    # writer stores equal tables
    xs = list(sample_stream(4, 4, 20, random.Random(14)))
    expected = [kernel_tables(x) for x in xs]
    profiles, verdicts = [], []

    def read_all():
        profiles.append([leaf_profile(x) for x in xs])
        verdicts.append([in_leaf(x, classify_leaf(x)) for x in xs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_all) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert profiles == [expected] * 6 and verdicts == [[True] * 20] * 6
    assert [x._tables for x in xs] == expected


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3)])
def test_verdicts_on_kept_tables_equal_verdicts_on_a_fresh_copy(m, n):
    """``in_leaf`` on a matrix whose tables are kept, on every stratum in both
    modes, gives the verdicts of an equal matrix made afresh from its text."""
    pool = leaves.all_leaves(m, n)
    xs = list(sample_stream(m, n, 40, random.Random(10 * m + n)))
    for x in xs:
        leaf_profile(x)
    for x in xs:
        fresh = from_text(x.to_text())
        for mode in ("cell", "closure"):
            kept = [in_leaf(x, L, mode) for L in pool]
            assert kept == [in_leaf(fresh, L, mode) for L in pool], (x, mode)
        # and the verdicts are those of x itself: its class is its one stratum
        assert [L for L in pool if in_leaf(x, L)] == [classify_leaf(x)]


def test_each_matrix_keeps_its_class():
    for x in sample_stream(3, 4, 30, random.Random(15)):
        fresh = from_text(x.to_text())
        assert x._leaf is None
        L = classify_leaf(x)
        assert classify_leaf(x) is L and x._leaf is L
        assert fresh._leaf is None
        assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)
        assert classify_leaf(fresh) == L and classify_leaf(fresh) is not L


def test_threads_racing_to_fill_the_class_all_read_one_stratum():
    # as for the tables, the fill is check-then-write without a lock: safe
    # only because every writer stores an equal stratum
    xs = list(sample_stream(4, 4, 20, random.Random(16)))
    expected = [classify_leaf(from_text(x.to_text())) for x in xs]
    found = []

    def read_all():
        found.append([classify_leaf(x) for x in xs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_all) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert found == [expected] * 6
    assert [x._leaf for x in xs] == expected


def planted(x, name, value):
    """``x`` with its cache slot ``name`` overwritten by a wrong ``value``."""
    object.__setattr__(x, name, value)
    return x


def test_planted_tables_leave_classification_right():
    xs = list(sample_stream(3, 3, 40, random.Random(17)))
    for x, other in zip(xs, xs[1:] + xs[:1]):
        expected = classify_leaf(from_text(x.to_text()))
        wrong = leaf_profile(from_text(other.to_text()))
        y = planted(from_text(x.to_text()), "_tables", wrong)
        assert classify_leaf(y) == expected, x


def test_planted_class_leaves_membership_right():
    pool = leaves.all_leaves(3, 3)
    for x in sample_stream(3, 3, 40, random.Random(18)):
        fresh = from_text(x.to_text())
        L0 = classify_leaf(fresh)
        wrong = next(L for L in pool if L != L0)
        y = planted(from_text(x.to_text()), "_leaf", wrong)
        assert in_leaf(y, L0) and not in_leaf(y, wrong), x
        for mode in ("cell", "closure"):
            assert ([in_leaf(y, L, mode) for L in pool]
                    == [in_leaf(fresh, L, mode) for L in pool]), (x, mode)


def test_classify_rank_consistency():
    rng = random.Random(9)
    for i in range(60):
        m, n = 1 + i % 3, 1 + (i // 3) % 4
        x = sample_rank(m, n, i % (min(m, n) + 1), rng)
        assert classify_leaf(x).t == rank(x)


def test_block_containment():
    rng = random.Random(10)
    for i in range(60):
        m, n = 1 + i % 3, 1 + (i // 5) % 3
        x = sample_rank(m, n, i % (min(m, n) + 1), rng)
        b = block_split(classify_leaf(x).w, n, m)
        assert cells.classify(x, "B+") == b.w21
        assert cells.classify(x, "B-") == left_compose(
            longest(m), right_compose(transpose(b.w12), longest(n)))


def _dots_in(w, r1, r2, c1, c2):
    return sum(1 for j, r in enumerate(w.image)
               if r is not None and r1 <= r <= r2 and c1 <= j + 1 <= c2)


def block_relabel_targets(L):
    """
    Oracle: the targets from the four blocks of ``w``, relabelled by longest
    elements, as full tables in the layout of ``leaf_profile``.
    """
    m, n = L.m, L.n
    b = block_split(L.w, n, m)
    sw = cells.pp_rank_profile(b.w21, SOUTHWEST)
    lower = left_compose(longest(m), right_compose(transpose(b.w12), longest(n)))
    ne = cells.pp_rank_profile(lower, NORTHEAST)
    top_left = left_compose(longest(n), b.w11)
    col = tuple(tuple(q + 1 - p - _dots_in(top_left, p, n, p, q) if 1 <= p <= q else 0
                      for q in range(n + 1)) for p in range(n + 1))
    bottom_right = right_compose(b.w22, longest(m))
    row = tuple(tuple(q + 1 - p - _dots_in(bottom_right, p, q, 1, q) if 1 <= p <= q else 0
                      for q in range(m + 1)) for p in range(m + 1))
    return (sw, ne, col, row), (b.w21, lower)


def test_targets_and_labels_match_block_relabelling():
    count = 0
    for m, n in shapes(8):
        for L in leaves.all_leaves(m, n):
            targets, labels = block_relabel_targets(L)
            tg = leaves._leaf_targets(L.w, L.m, L.n)
            assert (tg.m, tg.n) == (m, n), L
            assert (tg.sw, *tg.rest()) == targets, L
            assert leaves.cell_labels(L) == labels, L
            count += 1
    assert count == 23_300


def test_staged_targets_equal_the_full_tables():
    """A stratum's ``sw`` target is built at once, the other three on first
    use; all four equal the block-relabelling oracle on every stratum up to
    4x4, and the tables of a member on 10x10 samples."""
    count = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for L in leaves.all_leaves(m, n):
                tg = leaves._Targets(L.w, m, n)
                assert tg._rest is None
                targets, _ = block_relabel_targets(L)
                assert tg.sw == targets[0], L
                assert (tg.sw, *tg.rest()) == targets and tg._rest is not None, L
                count += 1
    assert count == 9_720
    for x in sample_stream(10, 10, 12, random.Random(19)):
        L = classify_leaf(x)
        tg = leaves._Targets(L.w, 10, 10)
        T = kernel_tables(x)
        assert (tg.sw, *tg.rest()) == (T.sw, T.ne, T.col, T.row), x
        assert (tg.sw, *tg.rest()) == block_relabel_targets(L)[0], x


def test_in_leaf_verdicts_equal_full_table_verdicts_on_every_01_matrix_3x3():
    """Comparing ``sw`` first and the rest only after changes no verdict: every
    {0, 1} matrix against every stratum of 3x3, in both modes, gives the
    verdict of all four tables compared at once."""
    pool = leaves.all_leaves(3, 3)
    oracle = [tuple(chain.from_iterable(chain.from_iterable(block_relabel_targets(L)[0])))
              for L in pool]
    for bits in itertools.product((0, 1), repeat=9):
        x = RationalMatrix([bits[0:3], bits[3:6], bits[6:9]])
        T = kernel_tables(x)
        flat = tuple(chain.from_iterable(chain.from_iterable((T.sw, T.ne, T.col, T.row))))
        assert [in_leaf(x, L, "cell") for L in pool] == [flat == tg for tg in oracle], x
        assert ([in_leaf(x, L, "closure") for L in pool]
                == [all(map(le, flat, tg)) for tg in oracle]), x


def test_membership_builds_targets_only_as_far_as_it_compares(monkeypatch):
    """Each stream sample is classified once, and a stratum's targets past
    ``sw`` are built only for pairs that pass ``sw`` (seed 0, 500 samples)."""
    from leaf_atlas import harness
    calls = {"bruhat_pivots": 0, "pp_rank_profile": 0}

    def counted(namespace, name):
        kernel = getattr(namespace, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(namespace, name, wrapper)

    counted(leaves, "bruhat_pivots")
    counted(cells, "pp_rank_profile")
    leaves._leaf_targets.cache_clear()
    assert harness.run("thm42_equiv", 3, 3, 500, 0, threads=1).failed == 0
    assert calls["bruhat_pivots"] == 500
    assert calls["pp_rank_profile"] <= 155
    calls.update(bruhat_pivots=0, pp_rank_profile=0)
    leaves._leaf_targets.cache_clear()
    assert harness.run("closure_order", 4, 4, 500, 0, threads=1).failed == 0
    assert calls["bruhat_pivots"] == 500
    assert calls["pp_rank_profile"] <= 1_527
    assert leaves._leaf_targets.cache_info().currsize == 4_038


def triple_targets(L):
    """
    The targets as the corner tables plus ``(p, q, rank)`` triples for the
    column bands with ``p >= 2`` and the row bands with ``q < m`` only: the
    band conditions that the corner tables do not already imply.
    """
    m, n = L.m, L.n
    N = m + n
    S = cells.pp_rank_profile(L.w, SOUTHWEST)
    sw = tuple(row[:n + 1] for row in S[n:])
    ne = tuple(tuple(k + p - N + S[k][N - p] for k in range(n, -1, -1))
               for p in range(m + 1))
    col = [(p, q, S[n + 1 - p][q] - S[n + 1 - p][p - 1])
           for p in range(2, n + 1) for q in range(p, n + 1)]
    row = [(p, q, S[n + p - 1][N - q] - S[n + q][N - q])
           for p in range(1, m) for q in range(p, m)]
    return sw, ne, col, row


def triple_in_leaf(T, targets, mode):
    sw, ne, col, row = targets
    if mode == "cell":
        return (T.sw == sw and T.ne == ne and all(T.col[p][q] == r for p, q, r in col)
                and all(T.row[p][q] == r for p, q, r in row))
    return (all(a <= b for xr, wr in zip(T.sw, sw) for a, b in zip(xr, wr))
            and all(a <= b for xr, wr in zip(T.ne, ne) for a, b in zip(xr, wr))
            and all(T.col[p][q] <= r for p, q, r in col)
            and all(T.row[p][q] <= r for p, q, r in row))


@pytest.mark.parametrize("m, n, strata", [(1, 3, None), (2, 2, None), (2, 3, None),
                                          (3, 2, None), (3, 3, None), (4, 4, 500)])
def test_table_verdicts_equal_triple_verdicts(m, n, strata):
    """
    ``in_leaf`` on the four tables gives the verdict of the triple layout in
    both modes, on every stratum (a seeded sample of them at 4x4) times 200
    stream samples.
    """
    rng = random.Random(20 * m + n)
    pool = leaves.all_leaves(m, n)
    chosen = pool if strata is None else rng.sample(pool, strata)
    targets = [(L, triple_targets(L)) for L in chosen]
    members = closed = 0
    for x in sample_stream(m, n, 200, rng):
        T = leaf_profile(x)
        for L, tg in targets:
            cell = in_leaf(x, L, "cell")
            closure = in_leaf(x, L, "closure")
            assert cell == triple_in_leaf(T, tg, "cell"), (x, L)
            assert closure == triple_in_leaf(T, tg, "closure"), (x, L)
            members += cell
            closed += closure
    if strata is None:
        assert members == 200  # each sample lies in exactly one stratum
    assert closed > members > 0


def test_dimension_bounds():
    for m, n in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        leaves = enumerate_leaves(m, n)
        base = block_longest(n, m)
        for L in leaves:
            assert 0 <= L.dim <= m * n
            assert (L.dim == m * n) == (L.w == longest(m + n))
            assert (L.dim == 0) == (L.w == base)


def test_closure_leq_extremes():
    leaves = enumerate_leaves(2, 2)
    bottom = LeafIndex.from_w(block_longest(2, 2), 2, 2)
    top = LeafIndex.from_w(longest(4), 2, 2)
    for L in leaves:
        assert closure_leq(bottom, L)
        assert closure_leq(L, top)
    with pytest.raises(ValueError):
        closure_leq(bottom, LeafIndex.from_w((2, 1), 1, 1))


def brute_covers(leaves):
    edges = []
    for a in leaves:
        for b in leaves:
            if a != b and bruhat_leq(a.w, b.w):
                between = any(c not in (a, b) and bruhat_leq(a.w, c.w)
                              and bruhat_leq(c.w, b.w) for c in leaves)
                if not between:
                    edges.append((a, b))
    return sorted(edges, key=lambda e: (e[0].w, e[1].w))


def test_hasse_examples_and_covers():
    single = hasse(1, 1)
    assert len(single) == 1
    assert (single[0][0].w, single[0][1].w) == ((1, 2), (2, 1))
    for m, n in [(2, 1), (2, 2)]:
        got = sorted(hasse(m, n), key=lambda e: (e[0].w, e[1].w))
        assert got == brute_covers(enumerate_leaves(m, n))


def pairwise_hasse(m, n):
    """Covers as comparable pairs whose dimensions differ by one."""
    by_dim = {}
    for leaf in enumerate_leaves(m, n):
        by_dim.setdefault(leaf.dim, []).append(leaf)
    return [(a, b) for d in sorted(by_dim) for a in by_dim[d]
            for b in by_dim.get(d + 1, ()) if bruhat_leq(a.w, b.w)]


def test_hasse_equals_pairwise_construction():
    for m, n in shapes(7):
        assert hasse(m, n) == pairwise_hasse(m, n)


def test_hasse_dot_output():
    dot = "".join(hasse_dot(1, 1))
    assert dot.startswith("digraph leaves {")
    assert '"1,2" -> "2,1";' in dot


def test_leaf_json_roundtrip():
    L = LeafIndex.from_w((6, 2, 3, 5, 4, 1), 3, 3)
    assert LeafIndex.from_dict(json.loads(json.dumps(L.to_dict()))) == L
    with pytest.raises(ValueError):
        LeafIndex.from_dict({"w": [6, 2, 3, 5, 4, 1], "m": 3, "n": 3, "t": 2})
    with pytest.raises(ValueError):
        LeafIndex.from_dict({"w": [6, 2, 3, 5, 4, 1], "m": 3})
