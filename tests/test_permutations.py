import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leaf_atlas.double_bruhat import DoubleCellIndex
from leaf_atlas.permutations import (
    PartialPerm, all_perms, as_partial, block_longest, bruhat_leq,
    count_partial_perms, extend_ascending, identity, is_min_rep_first,
    is_min_rep_last, length, longest, min_reps_first, min_reps_last,
    parse_partial, partial_perms, subset_leq, with_head,
)
from perm_oracles import (block_split, bruhat_leq_by_sorted_prefixes, compose,
                          extend_ascending_by_set_difference, inverse,
                          is_min_rep_first_by_pairs, is_min_rep_last_by_pairs,
                          left_compose, partial_identity, right_compose, transpose)

perms = st.integers(1, 6).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple))


def adjacent_transposition(n, i):
    s = list(range(1, n + 1))
    s[i - 1], s[i] = s[i], s[i - 1]
    return tuple(s)


# --- basic operations -------------------------------------------------------

def test_length_examples():
    assert length(identity(4)) == 0
    assert length(longest(4)) == 6
    assert length((6, 2, 3, 5, 4, 1)) == 10


def test_length_matches_double_loop_oracle():
    for w in all_perms(5):
        brute = sum(1 for i, j in itertools.combinations(range(5), 2) if w[i] > w[j])
        assert length(w) == brute


@given(st.integers(0, 12).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)))
def test_length_matches_pairwise_inversions(w):
    brute = sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])
    assert length(w) == brute


def test_compose_example():
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


@given(perms)
def test_inverse_roundtrip(w):
    assert compose(w, inverse(w)) == identity(len(w))
    assert inverse(inverse(w)) == w
    assert length(inverse(w)) == length(w)


@given(perms, st.data())
def test_adjacent_transposition_changes_length_by_one(w, data):
    n = len(w)
    if n < 2:
        return
    i = data.draw(st.integers(1, n - 1))
    assert abs(length(compose(w, adjacent_transposition(n, i))) - length(w)) == 1


# --- set comparison and Bruhat order ---------------------------------------

def test_subset_leq_examples():
    assert subset_leq({1, 3}, {2, 3})
    assert subset_leq({2}, {2})
    assert not subset_leq({3}, {2})
    with pytest.raises(ValueError):
        subset_leq({1, 2}, {3})


def test_bruhat_examples():
    assert bruhat_leq((2, 1, 3), (2, 3, 1))
    assert not bruhat_leq((3, 1, 2), (2, 3, 1))
    assert not bruhat_leq((2, 3, 1), (3, 1, 2))
    for w in all_perms(4):
        assert bruhat_leq(w, w)
        assert bruhat_leq(identity(4), w)
        assert bruhat_leq(w, longest(4))


def bruhat_lower_set(w):
    """Independent oracle: all products of subwords of a fixed reduced word."""
    n = len(w)
    word = []
    v = list(w)
    # Sort v with adjacent swaps, recording them; reversing gives a reduced
    # word for w.
    for i in range(n):
        for j in range(n - 1):
            if v[j] > v[j + 1]:
                v[j], v[j + 1] = v[j + 1], v[j]
                word.append(j + 1)
    word.reverse()
    assert len(word) == length(w)
    reach = {identity(n)}
    for i in word:
        s = adjacent_transposition(n, i)
        reach |= {compose(u, s) for u in reach}
    return reach


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_matches_subword_oracle_exhaustive(n):
    for w in all_perms(n):
        lower = bruhat_lower_set(w)
        for y in all_perms(n):
            assert bruhat_leq(y, w) == (y in lower)


def test_bruhat_matches_subword_oracle_s5():
    for w in all_perms(5):
        lower = bruhat_lower_set(w)
        for y in all_perms(5):
            assert bruhat_leq(y, w) == (y in lower)


@pytest.mark.parametrize("n", range(7))
def test_bruhat_matches_sorted_prefix_oracle_exhaustive(n):
    ws = list(all_perms(n))
    assert all(bruhat_leq(y, z) == bruhat_leq_by_sorted_prefixes(y, z)
               for y in ws for z in ws)


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.permutations(tuple(range(1, n + 1))).map(tuple),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))))
def test_bruhat_matches_sorted_prefix_oracle(case):
    # each swap of an ascending pair moves up, so z >= y; both directions are tested
    y, swaps = case
    z = list(y)
    for i, j in swaps:
        i, j = min(i, j), max(i, j)
        if z[i] < z[j]:
            z[i], z[j] = z[j], z[i]
    z = tuple(z)
    assert bruhat_leq(y, z)
    for a, b in ((y, z), (z, y), (y, tuple(reversed(z)))):
        assert bruhat_leq(a, b) == bruhat_leq_by_sorted_prefixes(a, b)


def test_bruhat_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch: 2 vs 3"):
        bruhat_leq((1, 2), (1, 2, 3))


def test_bruhat_antitone_under_longest():
    w0 = longest(4)
    for y in all_perms(4):
        for z in all_perms(4):
            assert bruhat_leq(y, z) == bruhat_leq(compose(w0, z), compose(w0, y))


# --- special elements -------------------------------------------------------

def w_mn(n, m):
    """The longest element of S_{n+m} times ``block_longest(n, m)``."""
    return compose(longest(n + m), block_longest(n, m))


def test_block_longest_and_w_mn():
    assert block_longest(1, 1) == (1, 2)
    assert block_longest(2, 3) == (2, 1, 5, 4, 3)
    assert w_mn(2, 2) == (3, 4, 1, 2)
    assert length(block_longest(3, 2)) == 3 + 1
    # matrix form of w_mn is [[0, I_m], [I_n, 0]]
    for n, m in [(1, 2), (2, 2), (3, 2)]:
        w = w_mn(n, m)
        assert w == tuple(range(m + 1, m + n + 1)) + tuple(range(1, m + 1))


def test_partial_identities():
    assert partial_identity(2, 3, 0).rank() == 0
    assert partial_identity(3, 2, 2).pairs() == ((1, 1), (2, 2))
    with pytest.raises(ValueError):
        partial_identity(2, 3, 3)


# --- minimal coset representatives -----------------------------------------

def test_min_rep_checks():
    assert is_min_rep_first((1, 3, 2), 2)
    assert not is_min_rep_first((3, 1, 2), 2)
    assert is_min_rep_first(identity(5), 4)
    assert is_min_rep_last(identity(5), 3)


def test_min_rep_is_shortest_in_coset():
    # the one coset element with an ascending head is the shortest one
    for w in all_perms(4):
        coset = {compose(w, tau + (3, 4)) for tau in all_perms(2)}
        reps = [u for u in coset if is_min_rep_first(u, 2)]
        assert len(reps) == 1
        assert length(reps[0]) == min(length(u) for u in coset)


def test_with_head_lists_the_perms_with_that_head():
    for n in range(6):
        for k in range(n + 1):
            for head in itertools.permutations(range(1, n + 1), k):
                assert list(with_head(n, head)) == [
                    w for w in all_perms(n) if w[:k] == head]
    for bad in ((1, 1), (0,), (4,)):
        with pytest.raises(ValueError, match="not injective"):
            with_head(3, bad)


def test_min_reps_enumerators():
    # all_perms is lexicographic, so this pins the order of min_reps_first too
    for n in range(7):
        for t in range(n + 1):
            assert list(min_reps_first(n, t)) == [
                w for w in all_perms(n) if is_min_rep_first(w, t)]
    assert sorted(min_reps_last(4, 2)) == sorted(
        w for w in all_perms(4) if is_min_rep_last(w, 2))


def test_extend_ascending():
    assert extend_ascending(4, (3, 1)) == (3, 1, 2, 4)
    with pytest.raises(ValueError):
        extend_ascending(3, (2, 2))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_min_rep_checks_match_pairwise_oracle():
    # every word over 1..n+1 of length n <= 4, and every t from -1 to n+1
    for n in range(5):
        for w in itertools.product(range(1, n + 2), repeat=n):
            for t in range(-1, n + 2):
                assert (_outcome(is_min_rep_first, w, t)
                        == _outcome(is_min_rep_first_by_pairs, w, t))
                assert (_outcome(is_min_rep_last, w, t)
                        == _outcome(is_min_rep_last_by_pairs, w, t))


def test_extend_ascending_matches_set_difference_oracle():
    # every head over 0..n+1 of length up to n+1, for n <= 4
    for n in range(5):
        for k in range(n + 2):
            for head in itertools.product(range(n + 2), repeat=k):
                assert (_outcome(extend_ascending, n, head)
                        == _outcome(extend_ascending_by_set_difference, n, head))


# --- partial permutations ---------------------------------------------------

def test_partial_perm_basics():
    p = PartialPerm.from_pairs(3, 4, [(2, 3), (4, 1)])
    assert p.rank() == 2
    assert p.dom() == (2, 4)
    assert p.rng() == (1, 3)
    assert p.literal() == "3x4:2->3,4->1"
    assert parse_partial("3x4:2->3,4->1") == p
    assert parse_partial("2x2:") == PartialPerm(2, 2, (None, None))
    with pytest.raises(ValueError):
        PartialPerm.from_pairs(2, 2, [(1, 1), (2, 1)])


@pytest.mark.parametrize("build", [
    lambda: PartialPerm(3, 3, (True, None, None)),
    lambda: PartialPerm(3, 3, (1.0, None, None)),
    lambda: PartialPerm(True, 1, (None,)),
    lambda: PartialPerm(1, True, (None,)),
    lambda: PartialPerm(2.0, 1, (None,)),
    lambda: PartialPerm.from_pairs(3, 3, [(1, 2.0)]),
    lambda: PartialPerm.from_pairs(3, 3, [(1, True)]),
    lambda: PartialPerm.from_pairs(3, 3, [(2.0, 1)]),
    lambda: PartialPerm.from_pairs(3, 3, [(True, 1)]),
    lambda: PartialPerm.from_pairs(3, 2.0, []),
    lambda: PartialPerm.from_pairs(True, 1, []),
])
def test_partial_perm_rejects_values_that_are_not_ints(build):
    # each would print a literal that parse_partial cannot read back, such as
    # "3x3:1->True", "3x3:1->2.0" or "Truex1:"
    with pytest.raises(ValueError):
        build()


def test_partial_perm_stores_a_list_image_as_a_tuple():
    p = PartialPerm(2, 2, [1, None])
    twin = PartialPerm(2, 2, (1, None))
    assert p == twin and hash(p) == hash(twin)
    assert p.image == (1, None) and p.literal() == twin.literal() == "2x2:1->1"
    d = DoubleCellIndex(p, PartialPerm(2, 2, [None, 2]))
    assert hash(d) == hash(DoubleCellIndex(twin, PartialPerm(2, 2, (None, 2))))


def test_every_literal_parses_back():
    for m in range(4):
        for n in range(4):
            for p in partial_perms(m, n):
                assert parse_partial(p.literal()) == p


pps = st.tuples(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False)).map(
    lambda args: _random_pp(*args))


def _random_pp(m, n, rng):
    cols = [c for c in range(1, n + 1) if rng.random() < 0.6]
    rows = rng.sample(range(1, m + 1), min(len(cols), m))
    return PartialPerm.from_pairs(m, n, zip(cols, rows))


@given(pps)
def test_transpose_involution(p):
    assert transpose(transpose(p)) == p
    assert transpose(p).rank() == p.rank()
    assert transpose(p).dom() == p.rng()


def test_partial_perm_counts():
    for m in range(1, 5):
        for n in range(1, 5):
            for t in range(min(m, n) + 1):
                assert (sum(1 for _ in partial_perms(m, n, t))
                        == count_partial_perms(m, n, t))


# --- block splitting --------------------------------------------------------

def test_block_split_rank_one_example():
    b = block_split((6, 2, 3, 5, 4, 1), 3, 3)
    assert b.w21.pairs() == ((1, 3),)
    assert b.w12.pairs() == ((3, 1),)
    assert b.w11.pairs() == ((2, 2), (3, 3))
    assert b.w22.pairs() == ((1, 2), (2, 1))


def test_block_split_of_w_mn():
    # square case: both diagonal blocks empty, off-diagonal blocks identities
    for n in (2, 3):
        b = block_split(w_mn(n, n), n, n)
        assert b.w11.rank() == 0 and b.w22.rank() == 0
        assert b.w21 == partial_identity(n, n, n)
        assert b.w12 == partial_identity(n, n, n)
    # rectangular case, checked entry by entry
    b = block_split(w_mn(3, 2), 3, 2)
    assert b.w11.pairs() == ((1, 3),)
    assert b.w21.pairs() == ((2, 1), (3, 2))
    assert b.w12.pairs() == ((1, 1), (2, 2))
    assert b.w22.rank() == 0


def test_compose_helpers():
    p = partial_identity(3, 4, 2)
    y = (3, 1, 2)
    v = (2, 1, 3, 4)
    q = left_compose(y, right_compose(p, inverse(v)))
    # columns v(1), v(2) map to y(1), y(2)
    assert q.pairs() == ((1, 1), (2, 3))
    assert as_partial((2, 1)).image == (2, 1)
