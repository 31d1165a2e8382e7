import random

import pytest

from leaf_atlas.exact_matrix import RationalMatrix
from leaf_atlas.leaves import LeafIndex, enumerate_leaves, in_leaf
from leaf_atlas.permutations import (PartialPerm, bruhat_leq, check_perm, identity,
                                     min_reps_first, min_reps_last, partial_perms)
from leaf_atlas.sigma import (SigmaTuple, decompose_partial, enumerate_sigma,
                              phi, phi_inv, phi_to_leaf)
from perm_oracles import (block_split, enumerate_sigma_validated, inverse,
                          left_compose, partial_identity, phi_by_inverses,
                          phi_inv_by_blocks, right_compose)

SHAPES_UP_TO_8 = [(m, N - m) for N in range(2, 9) for m in range(1, N)]  # 1x7 and 7x1 too

SIGMA_513 = SigmaTuple((3, 1, 2), (1, 3, 2), (1, 2, 3), (3, 1, 2), 1)


def test_validation():
    with pytest.raises(ValueError):
        SigmaTuple((1, 3, 2), (1, 2, 3), (1, 2, 3), (1, 2, 3), 1)  # y tail not ascending
    with pytest.raises(ValueError):
        SigmaTuple((1, 2, 3), (2, 1, 3), (1, 2, 3), (1, 2, 3), 2)  # v head not ascending
    with pytest.raises(ValueError):
        SigmaTuple((1, 2, 3), (1, 2, 3), (2, 3, 1), (1, 2, 3), 2)  # z not below y
    with pytest.raises(ValueError):
        SigmaTuple((1, 2), (1, 2), (1, 2), (1, 2), 3)              # t out of range


def test_bool_entries_are_rejected():
    with pytest.raises(ValueError):
        check_perm((True, 2))
    with pytest.raises(ValueError):
        LeafIndex((True, 2), 1, 1)
    with pytest.raises(ValueError):
        SigmaTuple((True,), (1,), (1,), (1,), 0)


def test_bool_shape_and_rank_are_rejected():
    with pytest.raises(ValueError, match="m, n and t must be integers"):
        LeafIndex((1, 2), True, True)
    with pytest.raises(ValueError, match="m, n and t must be integers"):
        SigmaTuple((1,), (1,), (1,), (1,), True)
    with pytest.raises(ValueError, match="m, n and t must be integers"):
        SigmaTuple((1,), (1,), (1,), (1,), False)
    for args in [(True, True), (True, 2), (2, 2, True), (2, 2, False)]:
        with pytest.raises(ValueError, match="m, n and t must be integers"):
            enumerate_leaves(*args)


@pytest.mark.parametrize("args", [(2, 2, True), (2, 2, False), (True, 2, 0), (2, True, 1),
                                  (2.0, 2, 1), (2, 2, 1.0), (2, 2, None)])
def test_enumerate_sigma_rejects_non_int_shape_and_rank(args):
    with pytest.raises(ValueError, match="m, n and t must be integers"):
        enumerate_sigma(*args)


def test_empty_shapes_are_rejected():
    for m, n in [(0, 2), (2, 0), (0, 0)]:
        with pytest.raises(ValueError, match="m and n must be positive"):
            enumerate_sigma(m, n, 0)
    for sig in [((), (1,), (), (1,)), ((1,), (), (1,), ()), ((), (), (), ())]:
        with pytest.raises(ValueError, match="m and n must be positive"):
            SigmaTuple(*sig, 0)
    with pytest.raises(ValueError, match="m and n must be positive"):
        SigmaTuple.from_dict({"y": [], "v": [1], "z": [], "u": [1], "t": 0})


def test_list_arguments_are_stored_as_tuples():
    leaf = LeafIndex([2, 1], 1, 1)
    assert leaf == LeafIndex((2, 1), 1, 1) and hash(leaf) == hash(LeafIndex((2, 1), 1, 1))
    assert in_leaf(RationalMatrix([[5]]), leaf)
    sig = SigmaTuple(*map(list, (SIGMA_513.y, SIGMA_513.v, SIGMA_513.z, SIGMA_513.u)), 1)
    assert sig == SIGMA_513 and hash(sig) == hash(SIGMA_513)
    assert phi_to_leaf(sig) == phi_to_leaf(SIGMA_513)


def test_enumerate_sigma_trivial_counts():
    assert len(enumerate_sigma(1, 1, 0)) == 1
    assert len(enumerate_sigma(1, 1, 1)) == 1
    with pytest.raises(ValueError):
        enumerate_sigma(2, 2, 3)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 3)])
def test_sigma_counts_match_leaf_counts(m, n):
    for t in range(min(m, n) + 1):
        assert len(enumerate_sigma(m, n, t)) == len(enumerate_leaves(m, n, t))


def test_lock_example_both_directions():
    L = LeafIndex.from_w((6, 2, 3, 5, 4, 1), 3, 3)
    assert phi_inv(L) == SIGMA_513
    assert phi_to_leaf(SIGMA_513) == L
    assert phi(SIGMA_513) == (1, 5, 4, 2, 3, 6)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_roundtrips(m, n):
    for t in range(min(m, n) + 1):
        sigs = enumerate_sigma(m, n, t)
        images = set()
        for sig in sigs:
            L = phi_to_leaf(sig)
            assert L.t == t
            assert phi_inv(L) == sig
            images.add(L.w)
        assert len(images) == len(sigs)
    for L in enumerate_leaves(m, n):
        assert phi_to_leaf(phi_inv(L)) == L


@pytest.mark.parametrize("m,n", SHAPES_UP_TO_8)
def test_phi_inv_matches_block_dict_oracle(m, n):
    for L in enumerate_leaves(m, n):
        assert phi_inv(L) == phi_inv_by_blocks(L)


@pytest.mark.parametrize("m,n", SHAPES_UP_TO_8)
def test_enumerate_sigma_matches_validated_sorted_list(m, n):
    for t in range(min(m, n) + 1):
        fast, slow = enumerate_sigma(m, n, t), enumerate_sigma_validated(m, n, t)
        assert [s.to_dict() for s in fast] == [s.to_dict() for s in slow]  # order too


def test_identity_sigma_gives_partial_identity_block():
    for m, n in [(3, 2), (3, 3), (4, 2)]:
        t = n  # requires n <= m
        sig = SigmaTuple(identity(m), identity(n), identity(m), identity(n), t)
        L = phi_to_leaf(sig)
        assert block_split(L.w, n, m).w21 == partial_identity(m, n, t)
        assert L.t == t


def test_phi_inv_outputs_satisfy_bruhat_conditions():
    for L in enumerate_leaves(3, 3):
        sig = phi_inv(L)
        assert bruhat_leq(sig.z, sig.y)
        assert bruhat_leq(sig.v, sig.u)


def test_tail_dominance_order_facts():
    # below an ascending-tail u, values past t can only grow; conversely an
    # ascending-head v that dominates entrywise past t is Bruhat-below.
    for n in (2, 3, 4):
        for t in range(n + 1):
            for u in min_reps_last(n, n - t):
                for v in min_reps_first(n, t):
                    entrywise = all(v[j] >= u[j] for j in range(t, n))
                    if bruhat_leq(v, u):
                        assert entrywise
                    if entrywise:
                        assert bruhat_leq(v, u)


def test_phi_writes_the_images_of_the_inverse_based_form():
    shapes = [(m, n) for m in range(1, 5) for n in range(1, 5)] + [(2, 5), (5, 2)]
    count = 0
    for m, n in shapes:
        for t in range(min(m, n) + 1):
            for sig in enumerate_sigma(m, n, t):
                assert phi(sig) == phi_by_inverses(sig), sig
                count += 1
    assert count == sum(len(enumerate_leaves(m, n)) for m, n in shapes)


# --- factorizations of partial permutations ---------------------------------

def recompose(first, second, m, n, t):
    return left_compose(first, right_compose(partial_identity(m, n, t),
                                             inverse(second)))


def test_decompose_partial_trivial():
    p = partial_identity(3, 4, 2)
    assert decompose_partial(p, "yv") == (identity(3), identity(4))
    assert decompose_partial(p, "zu") == (identity(3), identity(4))
    empty = PartialPerm(2, 3, (None,) * 3)
    assert decompose_partial(empty, "yv") == (identity(2), identity(3))
    with pytest.raises(ValueError):
        decompose_partial(p, "xy")


def test_decompose_partial_exhaustive_small():
    from leaf_atlas.permutations import is_min_rep_first, is_min_rep_last
    for m, n in [(2, 3), (3, 3)]:
        for w in partial_perms(m, n):
            t = w.rank()
            y, v = decompose_partial(w, "yv")
            assert is_min_rep_last(y, m - t)
            assert is_min_rep_first(v, t) and is_min_rep_last(v, n - t)
            assert recompose(y, v, m, n, t) == w
            z, u = decompose_partial(w, "zu")
            assert is_min_rep_first(z, t) and is_min_rep_last(z, m - t)
            assert is_min_rep_last(u, n - t)
            assert recompose(z, u, m, n, t) == w


def test_decompose_partial_random_5x5():
    rng = random.Random(2)
    for _ in range(1000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        cols = [c for c in range(1, n + 1) if rng.random() < 0.5]
        rows = rng.sample(range(1, m + 1), min(len(cols), m))
        w = PartialPerm.from_pairs(m, n, zip(cols, rows))
        t = w.rank()
        for form in ("yv", "zu"):
            first, second = decompose_partial(w, form)
            assert recompose(first, second, m, n, t) == w


def test_decompose_uniqueness():
    # no other admissible pair recomposes to the same partial permutation
    from leaf_atlas.permutations import is_min_rep_first, is_min_rep_last, all_perms
    m = n = 3
    for w in partial_perms(m, n, 1):
        t = 1
        expected = decompose_partial(w, "yv")
        found = [(y, v) for y in all_perms(m) for v in all_perms(n)
                 if is_min_rep_last(y, m - t)
                 and is_min_rep_first(v, t) and is_min_rep_last(v, n - t)
                 and recompose(y, v, m, n, t) == w]
        assert found == [expected]
