import random

import pytest

from leaf_atlas import cells, harness
from leaf_atlas.echelon import (COLUMN, ROW, all_patterns,
                                column_pattern, column_stratum_representative,
                                column_stratum_sigma, in_pattern, leaf_factors,
                                parse_pattern, row_pattern,
                                sample_column_stratum, sample_row_stratum,
                                stratify_pattern)
from leaf_atlas.exact_matrix import (RationalMatrix, rank, sample_echelon_col,
                                     sample_echelon_row)
from leaf_atlas.leaves import LeafIndex, classify_leaf, in_leaf
from leaf_atlas.permutations import PartialPerm, identity
from leaf_atlas.sigma import SigmaTuple, enumerate_sigma, phi_inv, phi_to_leaf
from matrix_strategies import entry, identity_matrix
from perm_oracles import stratify_pattern_sorted


def test_pattern_validation_and_literals():
    pat = parse_pattern("row:3,6:2,4,5")
    assert pat == row_pattern(6, (2, 4, 5))
    assert pat.literal() == "row:3,6:2,4,5"
    assert parse_pattern("col:4,2:1,3") == column_pattern(4, (1, 3))
    for bad in ("col:3,2:2,2", "col:3,2:3", "row:2,3:1", "xyz:1,1:1"):
        with pytest.raises(ValueError):
            parse_pattern(bad)


@pytest.mark.parametrize("m, pivots, message", [
    (True, (1,), "m, n and t must be integers"),
    (3, (1.0, 2), "must be integers in 1..3"),
    (3, (True, 2), "must be integers in 1..3"),
])
def test_column_pattern_rejects_non_int_rows_and_pivots(m, pivots, message):
    with pytest.raises(ValueError, match=message):
        column_pattern(m, pivots)


def test_column_stratum_needs_y_and_z_of_length_m():
    with pytest.raises(ValueError, match="y and z must have length m=5"):
        sample_column_stratum(5, 1, (1, 2, 3), (1, 2, 3), 0)
    with pytest.raises(ValueError, match="y and z must have length m=3"):
        column_stratum_sigma(3, 1, (2, 1, 3), (2, 1))


def test_representative_rejects_a_pair_that_names_no_stratum():
    with pytest.raises(ValueError, match="y and z must have length m=5"):
        column_stratum_representative(5, 1, (1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError, match="is not Bruhat-below"):
        column_stratum_representative(3, 1, (1, 2, 3), (3, 1, 2))


def test_in_pattern_examples():
    pat = row_pattern(6, (2, 4, 5))
    rows = RationalMatrix([[0, 1, 0, 0, 0, 0],
                           [0, 0, 0, 1, 0, 0],
                           [0, 0, 0, 0, 1, 0]])
    assert in_pattern(rows, pat)
    assert not in_pattern(RationalMatrix.zero(3, 6), pat)
    assert in_pattern(identity_matrix(2), column_pattern(2, (1, 2)))
    with pytest.raises(ValueError):
        in_pattern(RationalMatrix.zero(2, 2), pat)


def test_pattern_members_have_full_rank():
    rng = random.Random(4)
    for seed in range(20):
        a = sample_echelon_col(4, 2, (2, 4), rng)
        assert in_pattern(a, column_pattern(4, (2, 4)))
        assert rank(a) == 2


def test_stratify_examples():
    assert stratify_pattern(column_pattern(1, (1,))) == [((1,), (1,))]
    for m in (2, 3, 4):
        for t in range(1, m + 1):
            for pat in all_patterns(COLUMN, m, t):
                strata = stratify_pattern(pat)
                assert len(strata) >= 1
                for y, z in strata:
                    assert tuple(z[:t]) == pat.pivots
    # row side mirrors with (u, v) roles
    for u, v in stratify_pattern(row_pattern(3, (2,))):
        assert v[0] == 2


def test_stratification_covers_and_separates():
    rng = random.Random(11)
    for pat in all_patterns(COLUMN, 3, 2):
        strata = stratify_pattern(pat)
        targets = {pair: phi_to_leaf(column_stratum_sigma(3, 2, *pair))
                   for pair in strata}
        for k in range(12):
            a = sample_echelon_col(3, 2, pat.pivots, rng,
                                   zero_prob=0.0 if k % 2 else 0.5)
            L = classify_leaf(a)
            hits = [pair for pair, tgt in targets.items() if tgt == L]
            assert len(hits) == 1
            # opposite-side class pins the pivots
            lower = cells.classify(a, "B-")
            assert lower.pairs() == tuple((j, r) for j, r in
                                          enumerate(pat.pivots, start=1))


def test_transpose_duality():
    rng = random.Random(12)
    for t, n in [(1, 3), (2, 3), (2, 4)]:
        for pivots in [p.pivots for p in all_patterns(ROW, n, t)]:
            a = sample_echelon_row(t, n, pivots, rng)
            assert in_pattern(a, row_pattern(n, pivots))
            assert in_pattern(a.transpose(), column_pattern(n, pivots))


def test_torus_stability():
    rng = random.Random(13)
    pat = column_pattern(4, (1, 3))
    for _ in range(10):
        a = sample_echelon_col(4, 2, (1, 3), rng)
        scaled = a.scaled([rng.choice((-3, 2, "1/2", 5)) for _ in range(4)],
                          [rng.choice((7, -1, "2/3")) for _ in range(2)])
        assert in_pattern(scaled, pat)
        assert classify_leaf(scaled) == classify_leaf(a)


def test_stratum_representatives_m_le_5_all_reachable():
    for m in range(1, 6):
        for t in range(1, m + 1):
            for pat in all_patterns(COLUMN, m, t):
                for y, z in stratify_pattern(pat):
                    rep = column_stratum_representative(m, t, y, z)
                    L = phi_to_leaf(column_stratum_sigma(m, t, y, z))
                    assert in_pattern(rep, pat)
                    assert classify_leaf(rep) == L
                    assert in_leaf(rep, L)


def test_targeted_stratum_sampling():
    rng = random.Random(14)
    for y, z in stratify_pattern(column_pattern(3, (2,))):
        a = sample_column_stratum(3, 1, y, z, rng)
        assert classify_leaf(a) == phi_to_leaf(column_stratum_sigma(3, 1, y, z))
    u, v = stratify_pattern(row_pattern(3, (2,)))[0]
    r = sample_row_stratum(1, 3, u, v, rng)
    assert classify_leaf(r) == phi_to_leaf(SigmaTuple(identity(1), v, identity(1), u, 1))


def test_leaf_factors_descriptors():
    L = LeafIndex.from_w((6, 2, 3, 5, 4, 1), 3, 3)
    (y, z), (u, v) = leaf_factors(L)
    assert (y, z) == ((3, 1, 2), (1, 2, 3))
    assert (u, v) == ((3, 1, 2), (1, 3, 2))
    zero = LeafIndex.from_w((3, 2, 1, 6, 5, 4), 3, 3)  # rank-0 stratum
    assert zero.t == 0
    (y0, z0), (u0, v0) = leaf_factors(zero)
    assert y0 == z0 == (1, 2, 3) and u0 == v0 == (1, 2, 3)


def test_factor_products_classify_to_the_leaf():
    rng = random.Random(15)
    for m, n in [(2, 2), (3, 2), (3, 3)]:
        for t in range(min(m, n) + 1):
            sigs = enumerate_sigma(m, n, t)
            for sig in (sigs if len(sigs) <= 20 else rng.sample(sigs, 20)):
                if t == 0:
                    assert classify_leaf(RationalMatrix.zero(m, n)) == phi_to_leaf(sig)
                    continue
                c = sample_column_stratum(m, t, sig.y, sig.z, rng)
                r = sample_row_stratum(t, n, sig.u, sig.v, rng)
                # the factors themselves sit in their own strata
                assert classify_leaf(c) == phi_to_leaf(
                    column_stratum_sigma(m, t, sig.y, sig.z))
                assert classify_leaf(r) == phi_to_leaf(
                    SigmaTuple(identity(t), sig.v, identity(t), sig.u, t))
                assert classify_leaf(c @ r) == phi_to_leaf(sig)


def _in_pattern_by_kind(a, pat):
    """``in_pattern`` with a branch per orientation, as a reference."""
    if (a.rows, a.cols) != (pat.rows, pat.cols):
        raise ValueError("dimension mismatch")
    if pat.kind == COLUMN:
        return all(entry(a, pr, j) != 0
                   and all(entry(a, i, j) == 0 for i in range(1, pr))
                   for j, pr in enumerate(pat.pivots, start=1))
    return all(entry(a, i, pc) != 0
               and all(entry(a, i, j) == 0 for j in range(1, pc))
               for i, pc in enumerate(pat.pivots, start=1))


def _echelon_member_by_kind(a, pat):
    """``harness.check_echelon_member`` with a body per orientation, as a reference."""
    if not _in_pattern_by_kind(a, pat):
        return False
    if not _in_pattern_by_kind(a.transpose(), pat.transposed()):
        return False
    sig = phi_inv(classify_leaf(a))
    t = pat.t
    idt = tuple(range(1, t + 1))
    if pat.kind == COLUMN:
        if sig.v != idt or sig.u != idt or tuple(sig.z[:t]) != pat.pivots:
            return False
        if (sig.y, sig.z) not in stratify_pattern(pat):
            return False
        return cells.classify(a, cells.B_MINUS) == PartialPerm.from_pairs(
            pat.rows, t, ((j, r) for j, r in enumerate(pat.pivots, 1)))
    if sig.y != idt or sig.z != idt or tuple(sig.v[:t]) != pat.pivots:
        return False
    if (sig.u, sig.v) not in stratify_pattern(pat):
        return False
    return cells.classify(a, cells.B_PLUS) == PartialPerm.from_pairs(
        t, pat.cols, ((c, i) for i, c in enumerate(pat.pivots, 1)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _edited(a, pat, line, pos, value):
    """``a`` with entry ``pos`` (1-based) of pattern line ``line`` set to ``value``."""
    rows = [list(r) for r in a.entries]
    i, j = (pos, line) if pat.kind == COLUMN else (line, pos)
    rows[i - 1][j - 1] = value
    return RationalMatrix(rows)


def test_one_body_echelon_checks_match_the_branch_per_kind_references():
    rng = random.Random(16)
    members = 0
    for kind in (COLUMN, ROW):
        for long_dim in range(1, 5):
            for t in range(1, long_dim + 1):
                pats = all_patterns(kind, long_dim, t)
                for pat in pats:
                    for zp in (0.0, 0.4):
                        a = sample_echelon_col(long_dim, t, pat.pivots, rng, zp)
                        a = a if kind == COLUMN else a.transpose()
                        assert harness.check_echelon_member(a, pat)
                        members += 1
                        cases = [(a, other) for other in pats]  # shifted pivots
                        cases.append((_edited(a, pat, 1, pat.pivots[0], 0), pat))
                        cases.extend((_edited(a, pat, k, p - 1, 7), pat)
                                     for k, p in enumerate(pat.pivots, 1) if p > 1)
                        cases.append((a.transpose(), pat))
                        for b, q in cases:
                            assert (_outcome(in_pattern, b, q)
                                    == _outcome(_in_pattern_by_kind, b, q))
                            assert (_outcome(harness.check_echelon_member, b, q)
                                    == _outcome(_echelon_member_by_kind, b, q))
    assert members == 2 * 2 * 26


def test_stratify_pattern_is_the_sorted_pair_list():
    # every column and row pattern with long side up to 6, order included
    for long_dim in range(1, 7):
        for t in range(1, long_dim + 1):
            for kind in (COLUMN, ROW):
                for pat in all_patterns(kind, long_dim, t):
                    assert stratify_pattern(pat) == stratify_pattern_sorted(pat), pat
