import ast
import copy
import itertools
import pickle
import random
from decimal import Decimal
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leaf_atlas
from leaf_atlas.cells import pp_rank_profile
from leaf_atlas.exact_matrix import (
    NORTHEAST, SOUTHWEST, RationalMatrix, bruhat_pivots, from_json, from_text,
    load_matrix, interval_column_ranks, interval_row_ranks, rank, rank_profile,
    sample_echelon_col, sample_echelon_row, sample_rank,
)
from leaf_atlas.leaves import classify_leaf, leaf_profile
from leaf_atlas.permutations import PartialPerm
from matrix_strategies import entry, identity_matrix, oracle_matrices
from perm_oracles import bruhat_pivots_by_content, rank_at


def minor_rank(x):
    """Independent oracle: largest k with a nonzero k x k minor (Laplace dets)."""
    e = x.entries

    def det(rows, cols):
        if len(rows) == 1:
            return e[rows[0] - 1][cols[0] - 1]
        return sum((-1) ** i * e[rows[0] - 1][c - 1]
                   * det(rows[1:], cols[:i] + cols[i + 1:])
                   for i, c in enumerate(cols) if e[rows[0] - 1][c - 1] != 0)

    for k in range(min(x.rows, x.cols), 0, -1):
        for rows in itertools.combinations(range(1, x.rows + 1), k):
            for cols in itertools.combinations(range(1, x.cols + 1), k):
                if det(rows, cols) != 0:
                    return k
    return 0


def submatrix(x, r1, r2, c1, c2):
    if r1 > r2 or c1 > c2:
        return None
    return RationalMatrix([row[c1 - 1:c2] for row in x.entries[r1 - 1:r2]])


def test_construction_normalizes():
    x = RationalMatrix([["2/4", 3], [Fraction(1, 3), "-6/2"]])
    assert entry(x, 1, 1) == Fraction(1, 2)
    assert entry(x, 2, 2) == -3
    assert all(e.denominator > 0 for row in x.entries for e in row)


def test_construction_errors():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([])
    with pytest.raises(ValueError):
        RationalMatrix([["1/0"]])


def test_rank_examples():
    assert rank(identity_matrix(3)) == 3
    assert rank(RationalMatrix.zero(2, 5)) == 0
    assert rank(RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]])) == 1


def test_rank_matches_minor_oracle_bulk():
    rng = random.Random(20260810)
    for _ in range(10_000):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        x = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)]
                            for _ in range(m)])
        assert rank(x) == minor_rank(x)



@pytest.mark.parametrize("rows, southwest, northeast", [
    ([[0, 0, 0, 0]] * 3, [], []),                               # zero matrix
    ([[0, 3, 0, -2]], [(2, 1)], [(4, 1)]),                       # 1 x n
    ([[0], [2], [0], [5]], [(1, 4)], [(1, 2)]),                  # n x 1
    ([[-3]], [(1, 1)], [(1, 1)]),                                # negative 1 x 1
    ([[-2, 1], [-4, 3]], [(1, 2), (2, 1)], [(2, 1), (1, 2)]),    # negative pivots
    ([[6, 4, 0], [9, 6, 0], [0, 10, 15]],                        # row contents 2, 3, 5
     [(2, 3), (1, 2)], [(2, 1), (3, 3)]),
])
def test_bruhat_pivots_edge_cases(rows, southwest, northeast):
    before = [list(r) for r in rows]
    x = RationalMatrix(rows)
    for kind, expected in ((SOUTHWEST, southwest), (NORTHEAST, northeast)):
        pairs = bruhat_pivots(rows, kind)
        assert pairs == expected
        dots = PartialPerm.from_pairs(x.rows, x.cols, pairs)
        assert pp_rank_profile(dots, kind) == rank_profile(x, kind)
    assert rows == before


def test_bruhat_pivots_ignore_row_content_and_reject_unknown_kind():
    for kind in (SOUTHWEST, NORTHEAST):
        assert (bruhat_pivots([[6, 4, 2], [9, 6, 3], [0, 5, 10]], kind)
                == bruhat_pivots([[3, 2, 1], [3, 2, 1], [0, 1, 2]], kind))
    with pytest.raises(ValueError):
        bruhat_pivots([[1]], "diagonal")


def sylvester_hadamard(order):
    """The Sylvester-Hadamard +-1 matrix of a power-of-two order, whose
    determinant meets Hadamard's bound."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-a for a in row] for row in h]
    return h


def block_rows(irows):
    """The rows that ``classify_leaf`` eliminates for integer rows ``irows``:
    ``[[J, 0], [x, J]]`` with ``J`` an anti-identity."""
    m, n = len(irows), len(irows[0])
    top = [[int(j == n - i) for j in range(m + n)] for i in range(1, n + 1)]
    return top + [list(row) + [int(j == m - i) for j in range(m)]
                  for i, row in enumerate(irows, 1)]


def assert_pivots_match_content_walk(irows):
    for kind in (SOUTHWEST, NORTHEAST):
        assert bruhat_pivots(irows, kind) == bruhat_pivots_by_content(irows, kind), (irows, kind)


@pytest.mark.parametrize("order", [2, 4, 8, 16])
def test_bruhat_pivots_on_hadamard_matrices(order):
    h = sylvester_hadamard(order)
    assert_pivots_match_content_walk(h)
    assert_pivots_match_content_walk(block_rows(h))
    w = [0] * (2 * order)
    for c, r in bruhat_pivots_by_content(block_rows(h), SOUTHWEST):
        w[c - 1] = r
    assert classify_leaf(RationalMatrix(h)).w == tuple(w)


def test_bruhat_pivots_on_entries_near_1e30():
    rng = random.Random(30)
    big = 10 ** 30
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            rows = [[rng.choice((0, big + rng.randint(-9, 9), -big + rng.randint(-9, 9)))
                     for _ in range(n)] for _ in range(m)]
        else:  # a rank-t product with entries near 1e30: cancellation in the walk
            t = rng.randint(0, min(m, n))
            left = [[rng.choice((-1, 1)) * 10 ** 15 + rng.randint(-9, 9) for _ in range(t)]
                    for _ in range(m)]
            right = [[rng.choice((-1, 1)) * 10 ** 15 + rng.randint(-9, 9) for _ in range(n)]
                     for _ in range(t)]
            rows = [[sum(left[i][k] * right[k][j] for k in range(t)) for j in range(n)]
                    for i in range(m)]
        assert_pivots_match_content_walk(rows)
        assert_pivots_match_content_walk(block_rows(rows))


def test_bruhat_pivots_on_rational_rows_with_large_denominators():
    rng = random.Random(6)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        t = rng.randint(0, min(m, n))

        def frac():
            return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))

        left = [[frac() for _ in range(t)] for _ in range(m)]
        right = [[frac() for _ in range(n)] for _ in range(t)]
        x = RationalMatrix([[sum((left[i][k] * right[k][j] for k in range(t)), Fraction(0))
                             for j in range(n)] for i in range(m)])
        assert_pivots_match_content_walk(x._irows)
        assert_pivots_match_content_walk(block_rows(x._irows))


@pytest.mark.parametrize("m, n", [(1, 1), (1, 7), (7, 1), (1, 12), (12, 1), (3, 5), (6, 6)])
def test_bruhat_pivots_with_zero_rows_and_columns(m, n):
    rng = random.Random(m * 100 + n)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        for i in rng.sample(range(m), rng.randint(0, m)):
            rows[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, n)):
            for row in rows:
                row[j] = 0
        assert_pivots_match_content_walk(rows)
        assert_pivots_match_content_walk(block_rows(rows))


_wide_entries = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))


@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mn: st.lists(st.lists(_wide_entries, min_size=mn[1], max_size=mn[1]),
                        min_size=mn[0], max_size=mn[0])))
@settings(max_examples=200, deadline=None)
def test_bruhat_pivots_match_content_walk_on_integer_rows(rows):
    assert_pivots_match_content_walk(rows)
    assert_pivots_match_content_walk(block_rows(rows))


@given(oracle_matrices(6))
@settings(max_examples=200, deadline=None)
def test_bruhat_pivots_match_content_walk_on_rational_matrices(x):
    assert_pivots_match_content_walk(x._irows)
    assert_pivots_match_content_walk(block_rows(x._irows))

small_matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda mn: st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 min_size=mn[1], max_size=mn[1]),
        min_size=mn[0], max_size=mn[0])).map(RationalMatrix)


@given(oracle_matrices(7))
@settings(max_examples=200, deadline=None)
def test_integer_rows_scale_each_row_by_its_denominator_lcm(x):
    for row, irow in zip(x.entries, x._irows):
        scale = lcm(*(e.denominator for e in row))
        assert irow == tuple(int(e * scale) for e in row)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_rank_transpose_invariant(x):
    assert rank(x) == rank(x.transpose())


@given(oracle_matrices(7))
@settings(max_examples=200, deadline=None)
def test_profiles_match_submatrix_ranks(x):
    sw = rank_profile(x, SOUTHWEST)
    ne = rank_profile(x, NORTHEAST)
    for p in range(1, x.rows + 2):
        for q in range(0, x.cols + 1):
            sub = submatrix(x, p, x.rows, 1, q)
            assert rank_at(sw, SOUTHWEST, p, q) == (rank(sub) if sub else 0)
    for p in range(0, x.rows + 1):
        for q in range(1, x.cols + 2):
            sub = submatrix(x, 1, p, q, x.cols)
            assert rank_at(ne, NORTHEAST, p, q) == (rank(sub) if sub else 0)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_profile_lipschitz_and_monotone(x):
    sw = rank_profile(x, SOUTHWEST)
    for i in range(len(sw)):
        for j in range(len(sw[0]) - 1):
            assert 0 <= sw[i][j + 1] - sw[i][j] <= 1
    for i in range(len(sw) - 1):
        for j in range(len(sw[0])):
            assert 0 <= sw[i][j] - sw[i + 1][j] <= 1


@given(oracle_matrices(7))
@settings(max_examples=200, deadline=None)
def test_interval_ranks(x):
    col = interval_column_ranks(x)
    row = interval_row_ranks(x)
    for p in range(1, x.cols + 1):
        for q in range(p, x.cols + 1):
            assert col[p][q] == rank(submatrix(x, 1, x.rows, p, q))
    for p in range(1, x.rows + 1):
        for q in range(p, x.rows + 1):
            assert row[p][q] == rank(submatrix(x, p, q, 1, x.cols))


def test_interval_ranks_need_the_newest_vector_at_each_lead():
    # rows 2..3 have rank 2 only if row 2 displaces row 1 at lead 1, and
    # row 3 then displaces what is left of row 1
    x = RationalMatrix([[1, 0, 0], [1, 1, 0], [0, 1, 0]])
    assert interval_row_ranks(x) == [[0, 0, 0, 0], [0, 1, 2, 2], [0, 0, 1, 2], [0, 0, 0, 1]]
    assert interval_column_ranks(x.transpose()) == interval_row_ranks(x)


def test_profile_spec_examples():
    sw = rank_profile(identity_matrix(2), SOUTHWEST)
    assert rank_at(sw, SOUTHWEST, 2, 1) == 0  # submatrix [x21] = 0
    x = sample_rank(3, 4, 3, 5)
    assert rank_at(rank_profile(x, SOUTHWEST), SOUTHWEST, 1, x.cols) == rank(x)
    ne = rank_profile(RationalMatrix.zero(2, 3), NORTHEAST)
    assert all(v == 0 for row in ne for v in row)


# --- samplers ---------------------------------------------------------------

def test_sample_rank_has_exact_rank():
    for seed in range(30):
        m, n = 1 + seed % 4, 1 + (seed // 2) % 4
        for t in range(min(m, n) + 1):
            assert rank(sample_rank(m, n, t, seed)) == t
    with pytest.raises(ValueError):
        sample_rank(2, 2, 3, 0)


def test_samplers_reject_bool_ranks_and_pivots():
    with pytest.raises(ValueError, match="m, n and t must be integers"):
        sample_rank(2, 2, True, 0)
    with pytest.raises(ValueError, match=r"pivots \(True,\) must be integers"):
        sample_echelon_col(3, 1, (True,), 0)


@pytest.mark.parametrize("message", ["m and n must be positive", "out of range for m=",
                                     "not strictly increasing"])
def test_each_input_rule_is_raised_in_one_place(message):
    root = Path(leaf_atlas.__file__).parent
    raises = [f"{path.name}:{node.lineno}" for path in sorted(root.rglob("*.py"))
              for text in [path.read_text(encoding="utf-8")]
              for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)
              and message in ast.get_source_segment(text, node)]
    assert len(raises) == 1, raises


def test_sampler_determinism():
    assert sample_rank(3, 4, 2, 42) == sample_rank(3, 4, 2, 42)
    assert sample_rank(3, 3, 2, 7) == sample_rank(3, 3, 2, 7)
    assert sample_rank(3, 4, 2, 42) != sample_rank(3, 4, 2, 43)
    assert sample_echelon_col(4, 2, (1, 3), 42) == sample_echelon_col(4, 2, (1, 3), 42)
    assert sample_echelon_col(4, 2, (1, 3), 42) != sample_echelon_col(4, 2, (1, 3), 43)


def test_echelon_samplers_match_displayed_pattern():
    a = sample_echelon_row(3, 6, (2, 4, 5), 3)
    for i, pc in enumerate((2, 4, 5), start=1):
        assert entry(a, i, pc) != 0
        assert all(entry(a, i, j) == 0 for j in range(1, pc))
    b = sample_echelon_col(4, 2, (1, 3), 3)
    for j, pr in enumerate((1, 3), start=1):
        assert entry(b, pr, j) != 0
        assert all(entry(b, i, j) == 0 for i in range(1, pr))
    with pytest.raises(ValueError):
        sample_echelon_col(3, 2, (2, 2), 0)
    with pytest.raises(ValueError):
        sample_echelon_row(4, 3, (1, 2, 3), 0)


def row_sample_by_rows(t, n, pivots, rng, zero_prob):
    """The row sampler's draws in row order: pivot entry, then the entries right of it."""
    rows = [[0] * n for _ in range(t)]
    for i, pc in enumerate(pivots):
        rows[i][pc - 1] = rng.randint(1, 9) * (1 if rng.randint(0, 1) else -1)
        for j in range(pc, n):
            rows[i][j] = 0 if rng.random() < zero_prob else rng.randint(-9, 9)
    return RationalMatrix(rows)


def test_row_echelon_sampler_keeps_its_draws():
    cases = 0
    for n in range(1, 7):
        for t in range(1, n + 1):
            for pivots in itertools.combinations(range(1, n + 1), t):
                for seed, zp in itertools.product(range(2), (0.0, 0.4)):
                    mine, ref = random.Random(seed), random.Random(seed)
                    a = sample_echelon_row(t, n, pivots, mine, zp)
                    assert a == row_sample_by_rows(t, n, pivots, ref, zp)
                    assert a == sample_echelon_col(n, t, pivots, seed, zp).transpose()
                    assert mine.getstate() == ref.getstate()
                    cases += 1
    assert cases == 4 * 120
    for t, n, pivots in [(0, 3, ()), (4, 3, (1, 2, 3)), (2, 3, (2, 2)),
                         (2, 3, (1, 4)), (2, 3, (3, 1)), (2, 3, (1,))]:
        with pytest.raises(ValueError):
            sample_echelon_row(t, n, pivots, 0)


# --- parsing and formatting -------------------------------------------------

def test_text_roundtrip():
    x = RationalMatrix([["1/2", -3], [0, "7/3"]])
    assert from_text(x.to_text()) == x
    assert load_matrix(x.to_text()) == x


def test_json_roundtrip():
    x = RationalMatrix([["1/2", -3], [0, "7/3"]])
    import json
    text = json.dumps([[str(e) for e in row] for row in x.entries])
    assert from_json(text) == x
    assert load_matrix(text) == x
    assert from_json([[1, 2], [3, 4]]) == RationalMatrix([[1, 2], [3, 4]])


@pytest.mark.parametrize("rows", [[[1, -2], [0, 3]], [["1/2", -3], [0, "7/3"]],
                                  [["2/4", 6, "-1/6"]]])
def test_copies_and_pickles_are_equal_matrices_with_no_tables_kept(rows):
    # each of the three used to raise AttributeError: slot state was
    # restored through the blocked __setattr__
    x = RationalMatrix(rows)
    tables = leaf_profile(x)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert y is not x and y == x and hash(y) == hash(x)
        assert (y._d, y._irows) == (x._d, x._irows)
        assert y._tables is None
        assert leaf_profile(y) == tables and leaf_profile(y) is not tables


@pytest.mark.parametrize("rows", [[[1, -2], [0, 3]], [["1/2", -3], [0, "7/3"]],
                                  [["2/4", 6, "-1/6"]]])
def test_copies_and_pickles_are_equal_matrices_with_no_class_kept(rows):
    x = RationalMatrix(rows)
    leaf = classify_leaf(x)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert y is not x and y == x and hash(y) == hash(x)
        assert y._leaf is None and y._tables is None
        assert classify_leaf(y) == leaf and classify_leaf(y) is not leaf


def test_attributes_can_be_neither_set_nor_deleted():
    x = RationalMatrix([[1, 2], [3, 4]])
    tables = leaf_profile(x)
    leaf = classify_leaf(x)
    for name in ("rows", "cols", "_d", "_irows", "_tables", "_leaf", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(x, name)
    assert (x.rows, x.cols) == (2, 2) and x._tables is tables and x._leaf is leaf
    assert x == RationalMatrix([[1, 2], [3, 4]])


@pytest.mark.parametrize("text", ['["12","34"]', "[[0.1,1]]", "[[true,0]]"])
def test_json_input_is_never_reinterpreted(text):
    # string rows, floats and booleans used to parse as [[1,2],[3,4]],
    # 3602879701896397/36028797018963968 and [[1,0]]
    with pytest.raises(ValueError):
        from_json(text)
    with pytest.raises(ValueError):
        load_matrix(text)


def test_matmul_and_scaled():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert a @ b == RationalMatrix([[2, 1], [4, 3]])
    s = a.scaled([2, "1/3"], [1, -1])
    assert s == RationalMatrix([[2, -4], [1, "-4/3"]])
    with pytest.raises(ValueError):
        a.scaled([0, 1], [1, 1])


@pytest.mark.parametrize("entries", [[[0.1, True]], [[1j]], [[True]], [[1, False]],
                                     [[None]], [[1.0]], [[b"1"]], [[Decimal(1)]],
                                     ["10", "23"], "12", [b"12"], b"12", [[1, 2], "34"],
                                     [bytearray(b"12")], [memoryview(b"12")],
                                     {(1, 2): 0}, [{"1": 0, "2": 0}], {(1, 3)}, [{1, 3}],
                                     None, [1, 2], [[1, 2], 3]])
def test_entries_of_other_types_are_rejected(entries):
    # 0.1 and True used to read as 3602879701896397/36028797018963968 and 1;
    # the text rows ["10", "23"], "12" and [b"12"] as [[1, 0], [2, 3]],
    # [[1], [2]] and [[49, 50]], and bytearray and memoryview rows likewise;
    # a mapping read as its keys and a set in hash order ({(1, 2): 0},
    # [{"1": 0, "2": 0}], {(1, 3)} and [{1, 3}] as [[1, 2]], [[1, 2]], [[1, 3]]
    # and [[1, 3]]), and a non-iterable argument or row raised TypeError
    with pytest.raises(ValueError):
        RationalMatrix(entries)


def test_scale_factors_of_other_types_are_rejected():
    a = RationalMatrix([[1, 2], [3, 4]])
    for bad in (0.5, True, None):
        with pytest.raises(ValueError):
            a.scaled([bad, 1], [1, 1])
        with pytest.raises(ValueError):
            a.scaled([1, 1], [1, bad])


# --- integer rows and Fraction rows build the same matrix ----------------------

def _grids(cell):
    return st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda mnk: st.tuples(
            st.lists(st.lists(cell, min_size=mnk[1], max_size=mnk[1]),
                     min_size=mnk[0], max_size=mnk[0]),
            st.lists(st.lists(st.integers(-9, 9), min_size=mnk[2], max_size=mnk[2]),
                     min_size=mnk[1], max_size=mnk[1]),
            st.lists(st.lists(st.fractions(-5, 5, max_denominator=6),
                              min_size=mnk[2], max_size=mnk[2]),
                     min_size=mnk[1], max_size=mnk[1])))


nonzero_ints = st.integers(-5, 5).filter(bool)
nonzero_fractions = st.fractions(-5, 5, max_denominator=6).filter(bool)


def _product(a, b):
    """The product of two lists of rows, entry by entry in ``Fraction`` arithmetic."""
    return tuple(tuple(sum((Fraction(x) * y for x, y in zip(row, col)), Fraction(0))
                       for col in zip(*b)) for row in a)


def _builds_agree(grid, right_int, right_frac, data):
    """
    ``grid`` built from its own entries, from ``Fraction``s and from strings
    agrees on every view and operation; the ``Fraction``-built matrix is the
    oracle, and ``entries`` of each product are checked against ``_product``.
    """
    fracs = [[Fraction(e) for e in row] for row in grid]
    oracle = RationalMatrix(fracs)
    assert oracle.entries == tuple(map(tuple, fracs))
    assert all(type(e) is Fraction for row in oracle.entries for e in row)
    rows, cols = len(grid), len(grid[0])
    rf_int = data.draw(st.lists(nonzero_ints, min_size=rows, max_size=rows))
    cf_int = data.draw(st.lists(nonzero_ints, min_size=cols, max_size=cols))
    rf_frac = data.draw(st.lists(nonzero_fractions, min_size=rows, max_size=rows))
    cf_frac = data.draw(st.lists(nonzero_fractions, min_size=cols, max_size=cols))
    right_i, right_f = RationalMatrix(right_int), RationalMatrix(right_frac)
    for x in (RationalMatrix(grid), RationalMatrix([[str(e) for e in row] for row in grid])):
        assert x.entries == oracle.entries
        assert (x._d, x._irows) == (oracle._d, oracle._irows)
        assert x.to_text() == oracle.to_text() and repr(x) == repr(oracle)
        assert x == oracle and hash(x) == hash(oracle)
        assert rank(x) == rank(oracle)
        assert x.transpose() == oracle.transpose()
        assert x.transpose().entries == tuple(zip(*oracle.entries))
        for right in (right_i, right_f):
            assert x @ right == oracle @ right
            assert (x @ right).entries == _product(grid, right.entries)
        for rf, cf in ((rf_int, cf_int), (rf_frac, cf_frac), (rf_int, cf_frac)):
            assert x.scaled(rf, cf) == oracle.scaled(rf, cf)
            assert x.scaled(rf, cf).entries == tuple(
                tuple(Fraction(r) * e * c for e, c in zip(row, cf))
                for r, row in zip(rf, oracle.entries))


@given(_grids(st.integers(-9, 9)), st.data())
@settings(max_examples=100, deadline=None)
def test_integer_built_matrix_agrees_with_fraction_built(grids, data):
    grid = grids[0]
    x = RationalMatrix(grid)
    assert x._irows == tuple(map(tuple, grid)) and x._d == (1,) * len(grid)
    _builds_agree(*grids, data)


@given(_grids(st.fractions(-5, 5, max_denominator=12)), st.data())
@settings(max_examples=100, deadline=None)
def test_rational_matrix_agrees_with_fraction_built(grids, data):
    _builds_agree(*grids, data)
