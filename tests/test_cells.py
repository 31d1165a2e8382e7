import itertools
import random

import pytest
from hypothesis import given, settings

import leaf_atlas
from leaf_atlas import cells, exact_matrix, leaves
from leaf_atlas.double_bruhat import classify_double
from leaf_atlas.exact_matrix import (NORTHEAST, SOUTHWEST, RationalMatrix,
                                     rank_profile, sample_rank)
from leaf_atlas.leaves import LeafIndex, classify_leaf, in_leaf
from leaf_atlas.permutations import PartialPerm, identity, partial_perms
from matrix_strategies import identity_matrix, oracle_matrices
from perm_oracles import rank_at


def leq(a, b):
    """Entrywise ``<=`` of two rank tables of one shape: closure membership."""
    return all(p <= q for ra, rb in zip(a, b) for p, q in zip(ra, rb))


def test_in_cell_examples():
    # the cell of w is where the corner table equals w's; its closure where it is <=
    eye = identity_matrix(3)
    assert rank_profile(eye, SOUTHWEST) == cells.pp_rank_profile(identity(3), SOUTHWEST)
    swap = RationalMatrix([[0, 1], [1, 0]])
    assert rank_profile(swap, SOUTHWEST) != cells.pp_rank_profile(identity(2), SOUTHWEST)
    zero = RationalMatrix.zero(2, 2)
    assert leq(rank_profile(zero, SOUTHWEST),
               cells.pp_rank_profile(PartialPerm.from_pairs(2, 2, [(1, 1)]), SOUTHWEST))
    with pytest.raises(ValueError):
        cells.classify(zero, "B?")


def test_classify_examples():
    assert cells.classify(identity_matrix(3)).pairs() == ((1, 1), (2, 2), (3, 3))
    assert cells.classify(RationalMatrix.zero(3, 4)).rank() == 0
    x = RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]])
    assert cells.classify(x, "B+").pairs() == ((1, 3),)
    assert cells.classify(x, "B-").pairs() == ((3, 1),)


def test_pp_profile_matches_numeric_profile():
    # dot counting agrees with the rank profile of the 0/1 matrix
    for pp in partial_perms(3, 4):
        dense = RationalMatrix([[1 if r == i else 0 for r in pp.image]
                                for i in range(1, 4)])
        for kind in (SOUTHWEST, NORTHEAST):
            assert cells.pp_rank_profile(pp, kind) == rank_profile(dense, kind)


def test_partition_property():
    rng = random.Random(99)
    labels = list(partial_perms(3, 3))
    for i in range(1000):
        t = i % 4
        x = sample_rank(3, 3, t, rng)
        hits = [w for w in labels
                if rank_profile(x, SOUTHWEST) == cells.pp_rank_profile(w, SOUTHWEST)]
        assert hits == [cells.classify(x, "B+")]


def test_classify_agrees_with_membership_both_sides():
    rng = random.Random(5)
    for i in range(300):
        m, n = 1 + i % 3, 1 + (i // 3) % 3
        x = sample_rank(m, n, i % (min(m, n) + 1), rng)
        for side, kind in (("B+", SOUTHWEST), ("B-", NORTHEAST)):
            assert rank_profile(x, kind) == cells.pp_rank_profile(cells.classify(x, side), kind)


def brute_ne_class(x):
    """Independent search: the unique label with matching upper-right ranks."""
    hits = []
    for w in partial_perms(x.rows, x.cols):
        if cells.pp_rank_profile(w, NORTHEAST) == rank_profile(x, NORTHEAST):
            hits.append(w)
    assert len(hits) == 1
    return hits[0]


def test_b_minus_classify_vs_brute_force():
    for shape in [(2, 2), (2, 3)]:
        m, n = shape
        for flat in itertools.product((-1, 0, 1), repeat=m * n):
            x = RationalMatrix([flat[i * n:(i + 1) * n] for i in range(m)])
            assert cells.classify(x, "B-") == brute_ne_class(x)
    rng = random.Random(17)
    for _ in range(400):
        x = RationalMatrix([[rng.choice((-1, 0, 1)) for _ in range(3)]
                            for _ in range(3)])
        assert cells.classify(x, "B-") == brute_ne_class(x)


def test_closure_matches_profile_order():
    rng = random.Random(31)
    labels = list(partial_perms(2, 3))
    for i in range(200):
        x = sample_rank(2, 3, i % 3, rng)
        mine = cells.classify(x, "B+")
        my_table = cells.pp_rank_profile(mine, SOUTHWEST)
        for w in labels:
            wt = cells.pp_rank_profile(w, SOUTHWEST)
            assert leq(rank_profile(x, SOUTHWEST), wt) == leq(my_table, wt)


def table_classify(x, side):
    """Oracle: the dots are where the second difference of the corner rank table is 1."""
    kind = SOUTHWEST if side == "B+" else NORTHEAST
    table = rank_profile(x, kind)
    step = 1 if kind == SOUTHWEST else -1

    def r(p, q):
        return rank_at(table, kind, p, q)

    pairs = [(q, p) for p in range(1, x.rows + 1) for q in range(1, x.cols + 1)
             if r(p, q) - r(p + step, q) - r(p, q - step) + r(p + step, q - step) == 1]
    return PartialPerm.from_pairs(x.rows, x.cols, pairs)


def table_classify_leaf(x):
    """Oracle: the rank-table class of the Fraction-built embedding [[J, 0], [x, J]]."""
    m, n = x.rows, x.cols
    rows = [[int(j == n - i) for j in range(m + n)] for i in range(1, n + 1)]
    rows += [list(x.entries[i - 1]) + [int(j == m - i) for j in range(m)]
             for i in range(1, m + 1)]
    return LeafIndex.from_w(table_classify(RationalMatrix(rows), "B+").image, m, n)


@given(oracle_matrices(6))
@settings(max_examples=300, deadline=None)
def test_classify_matches_rank_table_oracle(x):
    assert cells.classify(x, "B+") == table_classify(x, "B+")
    assert cells.classify(x, "B-") == table_classify(x, "B-")


@given(oracle_matrices(6))
@settings(max_examples=200, deadline=None)
def test_classify_leaf_matches_fraction_embedding_oracle(x):
    assert classify_leaf(x) == table_classify_leaf(x)


def test_classification_does_not_reach_rank_profile(monkeypatch):
    rng = random.Random(3)
    xs = [RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]])]
    xs += [sample_rank(m, n, t, rng) for m, n in [(3, 3), (2, 4), (4, 3)]
           for t in range(min(m, n) + 1)]
    expected = [(table_classify(x, "B+"), table_classify(x, "B-"), table_classify_leaf(x))
                for x in xs]

    def unreachable(*args, **kwargs):
        raise RuntimeError("rank_profile reached")

    # cells does not import the kernel; patching it there too keeps the
    # test honest if it ever does
    for namespace in (exact_matrix, cells, leaves, leaf_atlas):
        monkeypatch.setattr(namespace, "rank_profile", unreachable, raising=False)
    for x, (up, lo, leaf) in zip(xs, expected):
        assert cells.classify(x, "B+") == up
        assert cells.classify(x, "B-") == lo
        assert classify_leaf(x) == leaf
        d = classify_double(x)
        assert (d.w1, d.w2) == (up, lo)
        with pytest.raises(RuntimeError, match="rank_profile reached"):
            exact_matrix.rank_profile(x, SOUTHWEST)
        with pytest.raises(RuntimeError, match="rank_profile reached"):
            in_leaf(x, leaf)


def test_membership_does_not_reach_bruhat_pivots(monkeypatch):
    rng = random.Random(4)
    xs = [RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]])]
    xs += [sample_rank(m, n, t, rng) for m, n in [(3, 3), (2, 4), (4, 3)]
           for t in range(min(m, n) + 1)]
    labels = [(cells.classify(x, "B+"), cells.classify(x, "B-"), classify_leaf(x))
              for x in xs]

    def membership(x, up, lo, leaf):
        return (rank_profile(x, SOUTHWEST), rank_profile(x, NORTHEAST),
                exact_matrix.interval_column_ranks(x), exact_matrix.interval_row_ranks(x),
                leaves.leaf_profile(x),
                rank_profile(x, SOUTHWEST) == cells.pp_rank_profile(up, SOUTHWEST),
                rank_profile(x, NORTHEAST) == cells.pp_rank_profile(lo, NORTHEAST),
                leq(rank_profile(x, NORTHEAST), cells.pp_rank_profile(up, NORTHEAST)),
                in_leaf(x, leaf), in_leaf(x, leaf, "closure"))

    expected = [membership(x, *lab) for x, lab in zip(xs, labels)]

    def unreachable(*args, **kwargs):
        raise RuntimeError("bruhat_pivots reached")

    # the package namespace does not export the kernel; patching it there too
    # keeps the test honest if it ever does
    for namespace in (exact_matrix, cells, leaves, leaf_atlas):
        monkeypatch.setattr(namespace, "bruhat_pivots", unreachable, raising=False)
    for x, lab, exp in zip(xs, labels, expected):
        # an equal copy keeps no tables, so leaf_profile and in_leaf count
        # them again under the patch
        fresh = exact_matrix.from_text(x.to_text())
        assert membership(fresh, *lab) == exp
        with pytest.raises(RuntimeError, match="bruhat_pivots reached"):
            cells.classify(fresh, "B+")
        with pytest.raises(RuntimeError, match="bruhat_pivots reached"):
            cells.classify(fresh, "B-")
        with pytest.raises(RuntimeError, match="bruhat_pivots reached"):
            classify_leaf(fresh)


def test_rank_does_not_reach_bruhat_pivots(monkeypatch):
    rng = random.Random(8)
    xs = [RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]]), identity_matrix(4)]
    xs += [sample_rank(m, n, t, rng) for m, n in [(3, 3), (2, 4), (4, 3)]
           for t in range(min(m, n) + 1)]
    ranks = [exact_matrix.rank(x) for x in xs]
    samples = [sample_rank(4, 5, t, 20 + t) for t in range(5)]

    def unreachable(*args, **kwargs):
        raise RuntimeError("bruhat_pivots reached")

    for namespace in (exact_matrix, cells, leaves, leaf_atlas):
        monkeypatch.setattr(namespace, "bruhat_pivots", unreachable, raising=False)
    assert [exact_matrix.rank(x) for x in xs] == ranks
    assert [sample_rank(4, 5, t, 20 + t) for t in range(5)] == samples
    with pytest.raises(RuntimeError, match="bruhat_pivots reached"):
        cells.classify(xs[0])
