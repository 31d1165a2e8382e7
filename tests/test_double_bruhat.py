import random

import pytest

from leaf_atlas import double_bruhat, harness
from leaf_atlas.double_bruhat import (DoubleCellIndex, classify_double,
                                      decompose, dense_orbit, is_nonempty,
                                      nonempty_by_completion)
from leaf_atlas.exact_matrix import RationalMatrix, sample_rank
from leaf_atlas.leaves import classify_leaf, enumerate_leaves
from leaf_atlas.permutations import as_partial, bruhat_leq, parse_partial, partial_perms
from leaf_atlas.sigma import SigmaTuple, phi_inv, phi_to_leaf
from perm_oracles import decompose_by_tails, partial_identity

CELL_45 = DoubleCellIndex(parse_partial("3x3:1->3"), parse_partial("3x3:3->1"))
SIGMA_513 = SigmaTuple((3, 1, 2), (1, 3, 2), (1, 2, 3), (3, 1, 2), 1)


def test_nonempty_examples():
    w = parse_partial("3x3:1->3,2->1")
    assert is_nonempty(DoubleCellIndex(w, w))
    assert is_nonempty(CELL_45)
    swapped = DoubleCellIndex(parse_partial("3x3:3->1"), parse_partial("3x3:1->3"))
    assert not is_nonempty(swapped)
    ranks_differ = DoubleCellIndex(parse_partial("2x2:1->1"),
                                   parse_partial("2x2:1->1,2->2"))
    assert not is_nonempty(ranks_differ)
    with pytest.raises(ValueError):
        DoubleCellIndex(parse_partial("2x2:1->1"), parse_partial("2x3:1->1"))


def test_decompose_of_rank_one_cell():
    orbits = decompose(CELL_45)
    assert len(orbits) == 4
    assert SIGMA_513 in orbits
    dims = sorted(phi_to_leaf(s).dim for s in orbits)
    assert dims == [3, 4, 4, 5]


def test_dense_orbit_of_rank_one_cell():
    dense = dense_orbit(CELL_45)
    assert dense == SigmaTuple((3, 1, 2), (1, 2, 3), (1, 2, 3), (3, 1, 2), 1)
    top = phi_to_leaf(dense)
    assert top.dim == 5
    for sig in decompose(CELL_45):
        assert bruhat_leq(phi_to_leaf(sig).w, top.w)


def test_full_permutation_cell_has_one_orbit():
    w = as_partial((2, 3, 1))
    d = DoubleCellIndex(w, w)
    orbits = decompose(d)
    assert len(orbits) == 1
    assert dense_orbit(d) == orbits[0]


def test_decompose_empty_cell_raises():
    swapped = DoubleCellIndex(parse_partial("3x3:3->1"), parse_partial("3x3:1->3"))
    with pytest.raises(ValueError):
        decompose(swapped)
    with pytest.raises(ValueError):
        dense_orbit(swapped)


def test_classify_double_examples():
    eye = partial_identity(2, 3, 1)
    x = RationalMatrix([[1, 0, 0], [0, 0, 0]])
    d = classify_double(x)
    assert d.w1 == eye and d.w2 == eye
    zero = classify_double(RationalMatrix.zero(2, 2))
    assert zero.w1.rank() == 0 and zero.w2.rank() == 0
    d45 = classify_double(RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]]))
    assert d45 == CELL_45


def test_three_criteria_agree_exhaustively():
    for m, n in [(2, 2), (2, 3)]:
        leaves = enumerate_leaves(m, n)
        for t in range(min(m, n) + 1):
            pps = list(partial_perms(m, n, t))
            for w1 in pps:
                for w2 in pps:
                    d = DoubleCellIndex(w1, w2)
                    assert is_nonempty(d) == nonempty_by_completion(d)


def test_orbit_partition_across_cells():
    for m, n in [(2, 2), (2, 3)]:
        collected = []
        for t in range(min(m, n) + 1):
            pps = list(partial_perms(m, n, t))
            for w1 in pps:
                for w2 in pps:
                    d = DoubleCellIndex(w1, w2)
                    if is_nonempty(d):
                        collected.extend(phi_to_leaf(s).w for s in decompose(d))
        assert sorted(collected) == sorted(L.w for L in enumerate_leaves(m, n))


def test_sampled_matrices_live_in_their_cells_decomposition():
    rng = random.Random(21)
    for i in range(150):
        m, n = 1 + i % 3, 1 + (i // 3) % 3
        x = sample_rank(m, n, i % (min(m, n) + 1), rng)
        d = classify_double(x)
        assert is_nonempty(d)
        assert phi_inv(classify_leaf(x)) in decompose(d)


def test_decompose_matches_the_tail_product_form():
    # every nonempty equal-rank double cell up to 4x4, order included
    cells = 0
    for m in range(1, 5):
        for n in range(1, 5):
            for t in range(min(m, n) + 1):
                pps = list(partial_perms(m, n, t))
                for w1 in pps:
                    for w2 in pps:
                        d = DoubleCellIndex(w1, w2)
                        if is_nonempty(d):
                            assert decompose(d) == decompose_by_tails(d), d
                            cells += 1
    assert cells > 1000


def test_each_cell_factors_its_labels_once(monkeypatch):
    calls = []
    real = double_bruhat.decompose_partial

    def counting(w, form):
        calls.append(form)
        return real(w, form)

    monkeypatch.setattr(double_bruhat, "decompose_partial", counting)
    d = DoubleCellIndex(parse_partial("3x3:1->3"), parse_partial("3x3:3->1"))
    before = (repr(d), hash(d))
    assert is_nonempty(d)
    assert decompose(d)[0] == dense_orbit(d)
    assert harness.check_criteria_agreement(d)
    assert sorted(calls) == ["yv", "zu"]
    # the kept factorization is no field: equality, hash and repr are the labels'
    assert (repr(d), hash(d)) == before and d == CELL_45 and "factors" not in repr(d)


def test_quadruple_outputs_are_valid_on_every_stratum():
    # phi_inv, decompose and dense_orbit build unchecked; here every output
    # goes through the validating constructor, up to 3x3
    def valid(s):
        return SigmaTuple(s.y, s.v, s.z, s.u, s.t) == s

    for m in range(1, 4):
        for n in range(1, 4):
            assert all(valid(phi_inv(L)) for L in enumerate_leaves(m, n))
            for t in range(min(m, n) + 1):
                pps = list(partial_perms(m, n, t))
                for d in (DoubleCellIndex(w1, w2) for w1 in pps for w2 in pps):
                    if is_nonempty(d):
                        assert all(map(valid, decompose(d))) and valid(dense_orbit(d))
