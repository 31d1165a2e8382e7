"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every expected value is
exact; the only tolerances are the per-criterion wall-clock budgets, pinned
here.

Criteria 01, 04-08, 10 and 11 run their per-item checks through the same
table of checks as the campaigns, ``harness.CHECKS``; a failing check prints
its counterexample payload as one JSON line, which ``harness.replay``
re-runs.  The lines no registered check covers stay here: criterion 01's
fixed counts, 04's rank-filtered enumeration count, 08's worked cell and
11's product count.  Criterion 8's dense-orbit expectation follows the
dominance rule for double-cell decompositions (the base factorization
quadruple is the dense stratum; see the rank-one worked example in test 8),
with the middle-column-zero quadruple verified to be one of the four strata.
"""
import json
import random
import time
from fractions import Fraction

from leaf_atlas.double_bruhat import DoubleCellIndex, decompose, dense_orbit
from leaf_atlas.echelon import (COLUMN, ROW, all_patterns, sample_column_stratum,
                                sample_row_stratum)
from leaf_atlas.exact_matrix import (RationalMatrix, rank, sample_echelon_col,
                                     sample_echelon_row)
from leaf_atlas.harness import VerificationReport, _sigmas, sample_stream
from leaf_atlas.leaves import (LeafIndex, all_leaves, classify_leaf, enumerate_leaves,
                               in_leaf)
from leaf_atlas.permutations import block_longest, longest, parse_partial, partial_perms
from leaf_atlas.sigma import SigmaTuple, enumerate_sigma, phi_inv, phi_to_leaf

SEED = 20260810

W_45 = (6, 2, 3, 5, 4, 1)
SIGMA_513 = SigmaTuple((3, 1, 2), (1, 3, 2), (1, 2, 3), (3, 1, 2), 1)
SIGMA_514 = SigmaTuple((2, 3, 1), (1, 2, 3), (1, 2, 3), (2, 3, 1), 2)


def report(num, label, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:>2} {status} ({elapsed:6.2f}s / {budget:.0f}s) {label}")
    for failure in failures[:5]:
        print(json.dumps(failure))
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def nonzero(rng):
    v = rng.randint(1, 9)
    return v if rng.randint(0, 1) else -v


def test_criterion_01_leaf_counts_and_dual_characterization():
    start = time.perf_counter()
    tally = VerificationReport()
    failures = []
    expected = {(1, 1): 2, (2, 1): 4, (1, 2): 4, (2, 2): 14}
    for (m, n), count in expected.items():
        got = len(enumerate_leaves(m, n))
        if got != count:
            failures.append((m, n, got, count))
    for N in range(2, 8):
        for m in range(1, N):
            tally.check("window_vs_bruhat", m, N - m)
    report(1, "leaf counts and window == Bruhat characterization (m+n <= 7)",
           failures + tally.counterexamples, time.perf_counter() - start, 10)


def _rank_one_sample(rng):
    col = [nonzero(rng), nonzero(rng), nonzero(rng)]
    row = [nonzero(rng), 0, nonzero(rng)]
    return RationalMatrix([[a * b for b in row] for a in col]), col, row


def test_criterion_02_rank_one_stratum_sign_pattern():
    start = time.perf_counter()
    rng = random.Random(SEED)
    L = LeafIndex.from_w(W_45, 3, 3)
    failures = []
    for i in range(1000):
        x, _, _ = _rank_one_sample(rng)
        if not in_leaf(x, L, "cell"):
            failures.append(("member", i))
    for i in range(1000):
        x, col, row = _rank_one_sample(rng)
        kind = i % 4
        if kind == 0:      # rank bumped to 2, sign pattern intact
            delta = nonzero(rng)
            while col[2] * row[2] + delta == 0:
                delta = nonzero(rng)
            entries = [list(r) for r in x.entries]
            entries[2][2] += delta
            x = RationalMatrix(entries)
        elif kind == 1:    # middle column made nonzero
            row[1] = nonzero(rng)
            x = RationalMatrix([[a * b for b in row] for a in col])
        elif kind == 2:    # middle row zeroed
            col[1] = 0
            x = RationalMatrix([[a * b for b in row] for a in col])
        else:              # corner column zeroed
            row[0] = 0
            x = RationalMatrix([[a * b for b in row] for a in col])
        if in_leaf(x, L, "cell"):
            failures.append(("violation", i, kind))
    report(2, "rank-one stratum: 1000 members accepted, 1000 violations rejected",
           failures, time.perf_counter() - start, 30)


def test_criterion_03_quadruple_examples():
    start = time.perf_counter()
    failures = []
    if phi_inv(LeafIndex.from_w(W_45, 3, 3)) != SIGMA_513:
        failures.append("phi_inv lock")
    rng = random.Random(SEED + 1)
    target = phi_to_leaf(SIGMA_514)
    for i in range(500):
        # family 1: zero corners (1,3)/(3,1), the six bordering entries
        # nonzero, centre solved to keep the rank at 2
        a11, a12, a21, a23, a32, a33 = (nonzero(rng) for _ in range(6))
        a22 = Fraction(a11 * a23 * a32 + a12 * a21 * a33, a11 * a33)
        x = RationalMatrix([[a11, a12, 0], [a21, a22, a23], [0, a32, a33]])
        if rank(x) != 2 or classify_leaf(x) != target:
            failures.append(("family1", i))
    for i in range(500):
        # family 2: a plus-shaped support with free centre
        b12, b21, b23, b32 = (nonzero(rng) for _ in range(4))
        b22 = rng.randint(-9, 9)
        x = RationalMatrix([[0, b12, 0], [b21, b22, b23], [0, b32, 0]])
        if classify_leaf(x) != target:
            failures.append(("family2", i))
    report(3, "quadruple of the worked rank-1 index; both rank-2 families "
              "classify to one stratum", failures, time.perf_counter() - start, 30)


def test_criterion_04_phi_bijectivity():
    start = time.perf_counter()
    tally = VerificationReport()
    failures = []
    for m in range(1, 5):
        for n in range(1, 5):
            for t in range(min(m, n) + 1):
                sigs = _sigmas(m, n, t)  # the enumeration the two count checks use
                if len(sigs) != len(enumerate_leaves(m, n, t)):
                    failures.append(("count", m, n, t))
                tally.check("sigma_count", m, n, t)
                tally.check("phi_injective", m, n, t)
                for sig in sigs:
                    tally.check("phi_roundtrip", sig)
    report(4, "quadruple bijection for all m, n <= 4 and all ranks",
           failures + tally.counterexamples, time.perf_counter() - start, 60)


def _sampled_strata(name):
    """``name`` on 650 samples per shape up to 4x4: all strata up to 3x3, else 12 and the own."""
    tally = VerificationReport()
    for m in range(1, 5):
        for n in range(1, 5):
            rng = random.Random(SEED + 10 * m + n)
            leaves = all_leaves(m, n)
            for x in sample_stream(m, n, 650, rng):
                pool = (leaves if max(m, n) <= 3
                        else rng.sample(leaves, 12) + [classify_leaf(x)])
                tally.check(name, x, pool)
    assert tally.attempted >= 10_000
    return tally


def test_criterion_05_membership_equals_classification():
    start = time.perf_counter()
    tally = _sampled_strata("classify_equiv")
    report(5, f"rank conditions == classification on {tally.attempted} samples "
              "(exhaustive indices for m, n <= 3)",
           tally.counterexamples, time.perf_counter() - start, 300)


def test_criterion_06_closure_order():
    start = time.perf_counter()
    tally = _sampled_strata("closure_order")
    report(6, f"closure conditions == Bruhat order on {tally.attempted} samples "
              "(exhaustive indices for m, n <= 3)",
           tally.counterexamples, time.perf_counter() - start, 300)


def test_criterion_07_block_class_consistency():
    start = time.perf_counter()
    tally = VerificationReport()
    for m in range(1, 5):
        for n in range(1, 5):
            rng = random.Random(SEED + 100 * m + n)
            for x in sample_stream(m, n, 650, rng):
                tally.check("block_classes", x)
    report(7, "rectangular cell labels match quadruple factorizations and blocks",
           tally.counterexamples, time.perf_counter() - start, 300)


def test_criterion_08_double_cells():
    start = time.perf_counter()
    tally = VerificationReport()
    failures = []
    for m in range(1, 4):
        for n in range(1, 4):
            pps = list(partial_perms(m, n))
            for w1 in pps:
                for w2 in pps:
                    tally.check("criteria_agreement", DoubleCellIndex(w1, w2))
            tally.check("orbit_partition", m, n)
    cell = DoubleCellIndex(parse_partial("3x3:1->3"), parse_partial("3x3:3->1"))
    orbits = decompose(cell)
    if len(orbits) != 4:
        failures.append(("orbit count", len(orbits)))
    if SIGMA_513 not in orbits:
        failures.append("rank-1 example quadruple missing from its cell")
    dense = dense_orbit(cell)
    if dense != SigmaTuple((3, 1, 2), (1, 2, 3), (1, 2, 3), (3, 1, 2), 1):
        failures.append(("dense", dense.to_dict()))
    tally.check("dense_orbit", cell)
    report(8, "double cells: 3 criteria agree, orbit partition, worked cell "
              "has 4 orbits with dominant dense stratum",
           failures + tally.counterexamples, time.perf_counter() - start, 120)


def test_criterion_09_dimensions():
    start = time.perf_counter()
    failures = []
    for m in range(1, 6):
        for n in range(1, 6):
            top = LeafIndex.from_w(longest(m + n), m, n)
            bottom = LeafIndex.from_w(block_longest(n, m), m, n)
            if top.dim != m * n or bottom.dim != 0:
                failures.append((m, n, top.dim, bottom.dim))
    if LeafIndex.from_w(W_45, 3, 3).dim != 4:
        failures.append("worked example dimension")
    report(9, "dimension extremes for m, n <= 5 and the worked rank-1 stratum",
           failures, time.perf_counter() - start, 10)


def test_criterion_10_partial_permutation_counts():
    start = time.perf_counter()
    tally = VerificationReport()
    for m in range(1, 6):
        for n in range(1, 6):
            for t in range(min(m, n) + 1):
                tally.check("pp_count", m, n, t)
    report(10, "partial permutation counts t! C(m,t) C(n,t) for m, n <= 5",
           tally.counterexamples, time.perf_counter() - start, 30)


def test_criterion_11_echelon_stratification():
    start = time.perf_counter()
    tally = VerificationReport()
    rng = random.Random(SEED + 2)
    for m in range(1, 5):
        for t in range(1, m + 1):
            for pat in all_patterns(COLUMN, m, t):
                for k in range(20):
                    a = sample_echelon_col(m, t, pat.pivots, rng,
                                           zero_prob=0.0 if k % 2 else 0.45)
                    tally.check("echelon_member", a, pat)
            for pat in all_patterns(ROW, m, t):
                for k in range(8):
                    a = sample_echelon_row(t, m, pat.pivots, rng,
                                           zero_prob=0.0 if k % 2 else 0.45)
                    tally.check("echelon_member", a, pat)
    # factor products across full quadruples for m, n <= 3
    products = 0
    for m in range(1, 4):
        for n in range(1, 4):
            for t in range(min(m, n) + 1):
                for sig in enumerate_sigma(m, n, t):
                    if t == 0:
                        tally.check("zero_product", sig)
                        continue
                    c = sample_column_stratum(m, t, sig.y, sig.z, rng)
                    r = sample_row_stratum(t, n, sig.u, sig.v, rng)
                    products += 1
                    tally.check("echelon_product", c, r, sig)
    assert products >= 100
    assert tally.skipped == 0
    label = (f"echelon patterns (m <= 4) stratify correctly; {products} factor "
             f"products verified, no stratum skipped")
    report(11, label, tally.counterexamples, time.perf_counter() - start, 300)
