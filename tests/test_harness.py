import gc
import json
import weakref

import pytest

from leaf_atlas import double_bruhat, echelon, harness, leaves
from leaf_atlas.double_bruhat import DoubleCellIndex, is_nonempty
from leaf_atlas.exact_matrix import RationalMatrix
from leaf_atlas.leaves import LeafIndex
from leaf_atlas.permutations import partial_perms
from leaf_atlas.sigma import SigmaTuple
from matrix_strategies import identity_matrix
from perm_oracles import rank_count


def strip_time(report):
    d = report.to_dict()
    d.pop("wall_time")
    return d


def test_counts_campaign_reports_leaf_count():
    r = harness.run("counts", 2, 2, threads=1)
    assert r.ok and r.failed == 0
    assert r.info["leaf_count"] == 14
    assert r.passed + r.failed + r.skipped == r.attempted


def test_partition_campaign_one_by_one():
    r = harness.run("partition", 1, 1, samples=100, seed=7, threads=1)
    assert r.attempted == 100 and r.passed == 100
    # only two strata exist and both get exercised
    assert r.info["rank_0"] > 0 and r.info["rank_1"] > 0


@pytest.mark.parametrize("campaign", ["thm42_equiv", "closure_order",
                                      "lemma75_blocks"])
def test_sampling_campaigns_pass(campaign):
    r = harness.run(campaign, 2, 2, samples=80, seed=5, threads=1)
    assert r.ok
    assert r.passed == r.attempted == 80


def test_phi_bijection_campaign():
    r = harness.run("phi_bijection", 3, 3, threads=1)
    assert r.ok
    assert r.info["sigma_count_1"] == 49


def test_echelon_campaign():
    r = harness.run("echelon_strata", 2, 2, samples=60, seed=1, threads=1)
    assert r.ok
    assert r.skipped == 0


def test_double_cells_campaign():
    r = harness.run("double_cells", 2, 2, samples=40, seed=1, threads=1)
    assert r.ok


@pytest.mark.parametrize("campaign", ["partition", "thm42_equiv", "closure_order",
                                      "lemma75_blocks"])
def test_determinism_and_thread_independence(campaign):
    a = harness.run(campaign, 2, 2, samples=300, seed=9, threads=1)
    b = harness.run(campaign, 2, 2, samples=300, seed=9, threads=2)
    assert strip_time(a) == strip_time(b)
    c = harness.run(campaign, 2, 2, samples=300, seed=10, threads=1)
    assert strip_time(a) != strip_time(c)


def test_campaigns_reach_every_registered_check(monkeypatch):
    reached = set()
    real = harness._call

    def recording(name, args):
        reached.add(name)
        return real(name, args)

    monkeypatch.setattr(harness, "_call", recording)
    for campaign in harness.CAMPAIGNS:
        assert harness.run(campaign, 2, 2, samples=20, seed=3, threads=1).ok
    # above _EXHAUSTIVE_LIMIT strata, where a sample of strata is checked
    before = set(reached)
    reached.clear()
    assert len(harness.all_leaves(4, 4)) > harness._EXHAUSTIVE_LIMIT
    assert harness.run("partition", 4, 4, samples=5, seed=3, threads=1).ok
    assert reached == {"classify_equiv"}
    assert before | reached == set(harness.CHECKS)


def test_report_add_sums_counts_and_merges_info():
    total = harness.VerificationReport("partition", {"m": 1})
    for k in range(3):
        part = harness.VerificationReport()
        part.check("window_vs_bruhat", 1, 1)
        part.skip({"k": k})
        part.bump("rank_0", k)
        total.add(part)
    assert (total.attempted, total.passed, total.failed, total.skipped) == (6, 3, 0, 3)
    assert total.info == {"skips": [{"k": 0}, {"k": 1}, {"k": 2}], "rank_0": 3}
    assert total.campaign == "partition" and total.params == {"m": 1}


# One quadruple per condition of SigmaTuple, failing that condition alone:
# y not ascending after t, v or z not ascending on 1..t, u not ascending
# after t, z not below y, v not below u.
INVALID_QUADRUPLES = {
    (2, 2): [((2, 1), (1, 2), (1, 2), (1, 2), 0),
             ((1, 2), (2, 1), (1, 2), (2, 1), 2),
             ((2, 1), (1, 2), (2, 1), (1, 2), 2),
             ((1, 2), (1, 2), (1, 2), (2, 1), 0),
             ((1, 2), (1, 2), (2, 1), (1, 2), 1),
             ((1, 2), (2, 1), (1, 2), (1, 2), 1)],
    (3, 3): [((1, 3, 2), (1, 2, 3), (1, 2, 3), (1, 2, 3), 1),
             ((1, 2, 3), (2, 1, 3), (1, 2, 3), (3, 2, 1), 2),
             ((3, 2, 1), (1, 2, 3), (2, 1, 3), (1, 2, 3), 2),
             ((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 3, 2), 1),
             ((1, 2, 3), (1, 2, 3), (2, 1, 3), (1, 2, 3), 1),
             ((1, 2, 3), (2, 1, 3), (1, 2, 3), (1, 2, 3), 1)],
}


@pytest.mark.parametrize("shape,fields", [(shape, f) for shape, cases in
                                          INVALID_QUADRUPLES.items() for f in cases])
def test_phi_bijection_catches_an_invalid_enumerated_quadruple(monkeypatch, shape, fields):
    # enumerate_sigma builds its quadruples unchecked; phi_roundtrip must catch a bad one
    with pytest.raises(ValueError):
        SigmaTuple(*fields)
    bad = SigmaTuple._trusted(*fields)
    real = harness._sigmas

    def with_bad(m, n, t):  # the first quadruple of rank bad.t replaced by bad
        sigs = real(m, n, t)
        return (bad,) + sigs[1:] if t == bad.t else sigs

    monkeypatch.setattr(harness, "_sigmas", with_bad)
    try:
        r = harness.run("phi_bijection", *shape, threads=1)
    except ValueError:
        return
    assert r.failed > 0
    assert {"check": "phi_roundtrip", "m": shape[0], "n": shape[1],
            "sigma": bad.to_dict()} in r.counterexamples


@pytest.mark.parametrize("shape,fields", [(shape, f) for shape, cases in
                                          INVALID_QUADRUPLES.items() for f in cases])
def test_phi_bijection_catches_an_invalid_phi_inv(monkeypatch, shape, fields):
    # phi_inv builds its quadruples unchecked; phi_roundtrip compares them with
    # validated ones, so a bad one on a single stratum must fail or raise
    bad = SigmaTuple._trusted(*fields)
    target = harness._leaves_by_rank(*shape)[bad.t][0]
    real = harness.phi_inv
    monkeypatch.setattr(harness, "phi_inv", lambda L: bad if L == target else real(L))
    try:
        r = harness.run("phi_bijection", *shape, threads=1)
    except ValueError:
        return
    assert r.failed > 0
    assert {p["check"] for p in r.counterexamples} <= {"phi_roundtrip", "leaf_roundtrip"}


def test_echelon_stratum_checks_membership_by_rank_conditions(monkeypatch):
    # the sampler accepts a rejection draw by classification, so only in_leaf
    # can fail on such a draw
    monkeypatch.setattr(harness, "in_leaf", lambda *args: False)
    r = harness.run("echelon_strata", 2, 2, threads=1)
    assert r.failed > 0
    assert {p["check"] for p in r.counterexamples} == {"echelon_stratum"}


# The six kinds again, one quadruple each at 2x3, for the double-cell campaign.
INVALID_2X3 = [((2, 1), (1, 2, 3), (1, 2), (1, 2, 3), 0),
               ((1, 2), (2, 1, 3), (1, 2), (3, 2, 1), 2),
               ((2, 1), (1, 2, 3), (2, 1), (1, 2, 3), 2),
               ((1, 2), (1, 2, 3), (1, 2), (1, 3, 2), 1),
               ((1, 2), (1, 2, 3), (2, 1), (1, 2, 3), 1),
               ((1, 2), (2, 1, 3), (1, 2), (1, 2, 3), 1)]


@pytest.mark.parametrize("fields", INVALID_2X3)
def test_double_cells_catches_an_invalid_decomposed_quadruple(monkeypatch, fields):
    # decompose builds its quadruples unchecked; orbit_partition validates each,
    # so one bad quadruple slipped into one cell's decomposition must fail or raise
    with pytest.raises(ValueError):
        SigmaTuple(*fields)
    bad = SigmaTuple._trusted(*fields)
    pps = list(partial_perms(2, 3, bad.t))
    cell = next(d for d in (DoubleCellIndex(w1, w2) for w1 in pps for w2 in pps)
                if is_nonempty(d))
    real = harness.decompose
    monkeypatch.setattr(harness, "decompose",
                        lambda d: real(d)[:-1] + [bad] if d == cell else real(d))
    try:
        r = harness.run("double_cells", 2, 3, samples=20, seed=1, threads=1)
    except ValueError:
        return
    assert r.failed > 0


def test_double_cells_catches_an_invalid_quadruple_of_the_right_stratum(monkeypatch):
    # (v, u) permuted together after position t keeps phi, so the stratum, but u
    # no longer ascends there: only the validation in orbit_partition sees it
    real = harness.decompose
    pps = list(partial_perms(2, 3, 1))
    cell = next(d for d in (DoubleCellIndex(w1, w2) for w1 in pps for w2 in pps)
                if is_nonempty(d) and len(real(d)) > 1)
    good = real(cell)[-1]

    def swap(p):  # positions 2 and 3 exchanged
        return p[:1] + p[2:0:-1]

    bad = SigmaTuple._trusted(good.y, swap(good.v), good.z, swap(good.u), 1)
    assert harness.phi_to_leaf(bad) == harness.phi_to_leaf(good)
    with pytest.raises(ValueError):
        SigmaTuple(bad.y, bad.v, bad.z, bad.u, bad.t)
    monkeypatch.setattr(harness, "decompose",
                        lambda d: real(d)[:-1] + [bad] if d == cell else real(d))
    with pytest.raises(ValueError):
        harness.run("double_cells", 2, 3, samples=0, seed=1, threads=1)


def test_phi_bijection_validates_each_quadruple_once(monkeypatch):
    calls = []
    real = SigmaTuple.__post_init__

    def counting(sig):
        calls.append(sig)
        real(sig)

    monkeypatch.setattr(SigmaTuple, "__post_init__", counting)
    assert harness.run("phi_bijection", 2, 3, threads=1).ok
    assert len(calls) == len(harness.all_leaves(2, 3))  # phi_roundtrip's side only


def test_echelon_strata_classification_count(monkeypatch):
    # only the rejection draws classify; a restored representative needs none
    calls, real = [], echelon.classify_leaf

    def counting(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(echelon, "classify_leaf", counting)
    report = harness.run("echelon_strata", 4, 4, samples=100, seed=0, threads=1)
    assert report.ok
    assert len(calls) <= 2_841  # 3,925 with the palette scan it replaced


def test_membership_sweep_hashes_no_leaf_index(monkeypatch):
    # in_leaf finds its cached targets by the plain tuple (w, m, n)
    inside, hashed = [False], []
    real_hash, real_in_leaf = LeafIndex.__hash__, harness.in_leaf

    def counting_hash(leaf):
        if inside[0]:
            hashed.append(leaf)
        return real_hash(leaf)

    def watched(*args):
        inside[0] = True
        try:
            return real_in_leaf(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(LeafIndex, "__hash__", counting_hash)
    monkeypatch.setattr(harness, "in_leaf", watched)
    report = harness.run("thm42_equiv", 3, 3, samples=20, seed=0, threads=1)
    assert report.ok and report.passed > 0
    assert hashed == []


def test_unknown_campaign_rejected():
    with pytest.raises(ValueError):
        harness.run("nope", 2, 2)


@pytest.mark.parametrize("name, kwargs", [
    ("m", {"m": True}), ("n", {"n": True}), ("m", {"m": 2.0}), ("n", {"n": "2"}),
    ("samples", {"samples": True}), ("samples", {"samples": 20.0}),
    ("seed", {"seed": 1.5}), ("seed", {"seed": False}), ("seed", {"seed": None}),
    ("threads", {"threads": True}), ("threads", {"threads": 1.0}),
])
def test_run_rejects_non_int_parameters(name, kwargs):
    args = {"m": 2, "n": 2, "samples": 20, "seed": 0, "threads": 1, **kwargs}
    m, n = args.pop("m"), args.pop("n")
    for campaign in ("counts", "lemma75_blocks"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            harness.run(campaign, m, n, **args)


def test_run_takes_default_threads():
    assert harness.run("counts", 1, 1, threads=None).ok


@pytest.mark.parametrize("payload", [
    {"check": "leaf_roundtrip", "m": 1, "n": 1, "leaf": {"w": [1, 2], "m": "1", "n": 1}},
    {"check": "leaf_roundtrip", "m": 1, "n": 1, "leaf": {"w": [True, 2], "m": 1, "n": 1}},
    {"check": "phi_roundtrip", "m": 1, "n": 1,
     "sigma": {"y": [1], "v": [1], "z": [1], "u": [1], "t": "0"}},
    {"check": "phi_roundtrip", "m": 1, "n": 1,
     "sigma": {"y": 5, "v": [1], "z": [1], "u": [1], "t": 0}},
    {"check": "sigma_count", "m": "2", "n": 2, "t": 1},
    {"check": "orbit_partition", "m": 2.0, "n": 1},
    {"check": "window_vs_bruhat", "m": True, "n": 1},
    {"check": "classify_equiv", "m": True, "n": 1, "matrix": "1"},
    {"check": "echelon_stratum", "m": "3", "n": 1, "t": 1,
     "y": [2, 1, 3], "z": [2, 1, 3], "matrix": "0\n1\n0"},
    {"check": "classify_equiv", "m": 1, "n": 1, "matrix": "1", "leaves": [[True, 2], [2, 1]]},
    {"check": "classify_equiv", "m": 1, "n": 1, "matrix": "1", "leaves": 5},
    {"check": "torus_stability", "m": 2, "n": 1, "pattern": "col:2,1:1", "matrix": "1\n2",
     "row_factors": [True, 2], "col_factors": ["3"]},
    {"check": "torus_stability", "m": 2, "n": 1, "pattern": "col:2,1:1", "matrix": "1\n2",
     "row_factors": [2.7, 2], "col_factors": ["3"]},
    {"check": "classify_equiv", "m": 1, "n": 1, "matrix": 5},
    {"check": "criteria_agreement", "m": 2, "n": 2, "w1": 5, "w2": "2x2:2->2"},
    {"check": "phi_roundtrip", "m": 1, "n": 1, "sigma": [1]},
    {"check": "leaf_roundtrip", "m": 1, "n": 1, "leaf": 5},
    {"check": "leaf_roundtrip", "m": 0, "n": 1, "leaf": {"w": [1], "m": 0, "n": 1}},
    {"check": "classify_equiv"},
    {"m": 1, "n": 1, "matrix": "1"},
    {"check": "torus_stability", "m": 2, "n": 1, "pattern": "col:2,1:1", "matrix": "1\n2",
     "row_factors": ["2", "3"]},
    [1],
    "x",
    {"check": "pp_count", "m": 2, "n": 2, "t": 3},
    {"check": "pp_count", "m": 0, "n": 2, "t": 0},
    {"check": "phi_lock", "m": -4, "n": 7},
    {"check": "echelon_stratum", "m": 3, "n": 1, "t": 1,
     "y": [1, 2, 3], "z": [1, 2, 3], "matrix": "1\n0"},
    {"check": "echelon_stratum", "m": 3, "n": 2, "t": 1,
     "y": [2, 1, 3], "z": [2, 1, 3], "matrix": "0\n1\n0"},
    {"check": "echelon_stratum", "m": 3, "n": 1, "t": 1,
     "y": [2, 1], "z": [2, 1], "matrix": "0\n1\n0"},
    {"check": "echelon_product", "m": 3, "n": 3, "c": "1\n1", "r": "1 0 0",
     "sigma": {"y": [3, 1, 2], "v": [1, 3, 2], "z": [1, 2, 3], "u": [3, 1, 2], "t": 1}},
    {"check": "echelon_product", "m": 3, "n": 3, "c": "1\n1\n1", "r": "1 0",
     "sigma": {"y": [3, 1, 2], "v": [1, 3, 2], "z": [1, 2, 3], "u": [3, 1, 2], "t": 1}},
    {"check": "echelon_product", "m": 3, "n": 3, "c": "1 0\n1 0\n1 0", "r": "1 0 0\n0 0 0",
     "sigma": {"y": [3, 1, 2], "v": [1, 3, 2], "z": [1, 2, 3], "u": [3, 1, 2], "t": 1}},
    {"check": "echelon_product", "m": 2, "n": 3, "c": "1\n1\n1", "r": "1 0 0",
     "sigma": {"y": [3, 1, 2], "v": [1, 3, 2], "z": [1, 2, 3], "u": [3, 1, 2], "t": 1}},
    {"check": "block_classes", "m": 5, "n": 7, "matrix": "1 0\n0 1"},
    {"check": "sigma_in_double_cell", "m": 2, "n": 3, "matrix": "1 0\n0 1"},
    {"check": "criteria_agreement", "m": 3, "n": 2, "w1": "2x2:1->1", "w2": "2x2:2->2"},
    {"check": "dense_orbit", "m": 7, "n": 7, "w1": "2x2:1->2", "w2": "2x2:2->1"},
    {"check": "zero_product", "m": 2, "n": 3,
     "sigma": {"y": [1, 2], "v": [1, 2], "z": [1, 2], "u": [1, 2], "t": 0}},
    {"check": "phi_roundtrip", "m": 3, "n": 2,
     "sigma": {"y": [2, 1], "v": [1, 2], "z": [1, 2], "u": [2, 1], "t": 1}},
    {"check": "leaf_roundtrip", "m": 2, "n": 1, "leaf": {"w": [2, 1], "m": 1, "n": 1}},
    {"check": "echelon_member", "m": 3, "n": 3, "pattern": "col:3,2:1,2",
     "matrix": "1 0\n2 3\n4 5"},
    {"check": "torus_stability", "m": 4, "n": 2, "pattern": "col:3,2:1,2",
     "matrix": "1 0\n2 3\n4 5", "row_factors": ["2", "-1", "3"], "col_factors": ["5", "1"]},
], ids=["leaf-m-string", "leaf-w-bool", "sigma-t-string", "sigma-y-int",
        "rank-m-string", "shape-m-float", "shape-m-bool", "strata-m-bool",
        "echelon-stratum-m-string", "strata-leaves-bool", "strata-leaves-int",
        "torus-factor-bool", "torus-factor-float", "matrix-not-a-string",
        "w1-not-a-string", "sigma-not-an-object", "leaf-not-an-object", "leaf-m-zero",
        "payload-lacks-fields", "payload-lacks-check", "torus-lacks-factors",
        "payload-a-list", "payload-a-string", "rank-t-above", "rank-m-zero",
        "shape-m-negative", "echelon-stratum-matrix-rows", "echelon-stratum-n-not-t",
        "echelon-stratum-y-length", "product-c-rows", "product-r-cols",
        "product-inner-not-t", "product-m-not-sigma", "block-classes-m-n-not-matrix",
        "sigma-in-double-cell-n-not-matrix", "criteria-m-not-cell", "dense-orbit-m-n-not-cell",
        "zero-product-n-not-sigma", "phi-roundtrip-m-not-sigma", "leaf-m-not-leaf",
        "echelon-member-n-not-pattern", "torus-m-not-pattern"])
def test_replay_rejects_wrong_typed_fields(payload):
    with pytest.raises(ValueError):
        harness.replay(payload)


def test_counts_that_verify_nothing_are_rejected():
    for threads in (0, -2):
        with pytest.raises(ValueError, match="threads"):
            harness.resolve_threads(threads)
    assert harness.resolve_threads(2) == 2
    for campaign in harness.CAMPAIGNS:
        with pytest.raises(ValueError, match="samples"):
            harness.run(campaign, 2, 2, samples=-3, threads=1)
    for campaign in ("partition", "thm42_equiv", "closure_order", "lemma75_blocks"):
        with pytest.raises(ValueError, match="samples"):
            harness.run(campaign, 2, 2, samples=0, threads=1)
    r = harness.run("counts", 2, 2, samples=0, threads=1)
    assert r.ok and r.attempted > 0


def test_replay_reproduces_synthetic_failure():
    # a fabricated counterexample: the rank-one example matrix against the
    # wrong stratum claim fails, and keeps failing bit-exactly on replay
    x = RationalMatrix([[1, 0, 2], [3, 0, 6], [2, 0, 4]])
    good = {"check": "classify_equiv", "m": 3, "n": 3, "matrix": x.to_text()}
    assert harness.replay(good) is True
    bad = {"check": "echelon_product", "m": 3, "n": 3,
           "c": RationalMatrix([[1], [1], [1]]).to_text(),
           "r": RationalMatrix([[1, 0, 0]]).to_text(),
           "sigma": {"y": [3, 1, 2], "v": [1, 3, 2], "z": [1, 2, 3],
                     "u": [3, 1, 2], "t": 1}}
    assert harness.replay(bad) is False
    assert harness.replay(bad) is False  # stable across re-runs
    with pytest.raises(ValueError):
        harness.replay({"check": "mystery"})


def test_replay_covers_emitted_check_kinds():
    payloads = [
        {"check": "unique_membership", "m": 2, "n": 2,
         "matrix": RationalMatrix.zero(2, 2).to_text()},
        {"check": "closure_order", "m": 2, "n": 2,
         "matrix": identity_matrix(2).to_text()},
        {"check": "block_classes", "m": 2, "n": 2,
         "matrix": identity_matrix(2).to_text()},
        {"check": "sigma_in_double_cell", "m": 2, "n": 2,
         "matrix": identity_matrix(2).to_text()},
        {"check": "criteria_agreement", "m": 2, "n": 2,
         "w1": "2x2:1->1", "w2": "2x2:2->2"},
        {"check": "dense_orbit", "m": 2, "n": 2,
         "w1": "2x2:1->2", "w2": "2x2:2->1"},
        {"check": "echelon_member", "m": 3, "n": 2, "pattern": "col:3,2:1,2",
         "matrix": RationalMatrix([[1, 0], [2, 3], [4, 5]]).to_text()},
        {"check": "echelon_stratum", "m": 3, "n": 1, "t": 1,
         "y": [2, 1, 3], "z": [2, 1, 3],
         "matrix": RationalMatrix([[0], [1], [0]]).to_text()},
        {"check": "torus_stability", "m": 3, "n": 2, "pattern": "col:3,2:1,2",
         "matrix": RationalMatrix([[1, 0], [2, 3], [4, 5]]).to_text(),
         "row_factors": ["2", "-1", "3"], "col_factors": ["5", "1"]},
        {"check": "window_vs_bruhat", "m": 2, "n": 2},
        {"check": "sigma_count", "m": 2, "n": 2, "t": 1},
        {"check": "pp_count", "m": 2, "n": 2, "t": 1},
        {"check": "phi_roundtrip", "m": 2, "n": 2,
         "sigma": {"y": [2, 1], "v": [1, 2], "z": [1, 2], "u": [2, 1], "t": 1}},
        {"check": "leaf_roundtrip", "m": 1, "n": 1,
         "leaf": {"w": [2, 1], "m": 1, "n": 1}},
        {"check": "phi_injective", "m": 2, "n": 2, "t": 1},
        {"check": "phi_lock", "m": 3, "n": 3},
        {"check": "orbit_partition", "m": 2, "n": 2},
    ]
    for payload in payloads:
        assert harness.replay(payload) is True, payload["check"]


def test_sample_stream_is_deterministic():
    import random
    a = list(harness.sample_stream(2, 3, 20, random.Random(3)))
    b = list(harness.sample_stream(2, 3, 20, random.Random(3)))
    assert a == b
    ranks = {x.rows for x in a}
    assert ranks == {2}


def _stream_with_one_matrix_per_zeroed_entry(m, n, count, rng):
    """The sample stream as it was built before ``harness._zeroed``: one matrix per zeroing."""
    def zero_row(x, i):
        return RationalMatrix([[0] * x.cols if r == i else list(row)
                               for r, row in enumerate(x.entries)])

    def zero_col(x, j):
        return RationalMatrix([[0 if c == j else e for c, e in enumerate(row)]
                               for row in x.entries])

    def zero_entry(x, i, j):
        return RationalMatrix([[0 if (r, c) == (i, j) else e for c, e in enumerate(row)]
                               for r, row in enumerate(x.entries)])

    tmax = min(m, n)
    for i in range(count):
        x = harness.sample_rank(m, n, i % (tmax + 1), rng)
        style = rng.random()
        if style < 0.15 and m > 1:
            x = zero_row(x, rng.randrange(m))
        elif style < 0.3 and n > 1:
            x = zero_col(x, rng.randrange(n))
        elif style < 0.45:
            for _ in range(rng.randint(1, max(1, m * n // 3))):
                x = zero_entry(x, rng.randrange(m), rng.randrange(n))
        yield x


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (4, 1), (3, 5), (4, 4)])
def test_sample_stream_matches_one_matrix_per_zeroed_entry(m, n):
    import random
    a = list(harness.sample_stream(m, n, 120, random.Random(m * 10 + n)))
    b = list(_stream_with_one_matrix_per_zeroed_entry(m, n, 120, random.Random(m * 10 + n)))
    assert a == b


def test_every_failure_names_a_registered_check_and_replays(monkeypatch):
    # with every registered check forced to fail, each campaign emits only
    # payloads of registered checks, and they all replay through the real ones
    payloads = []
    with monkeypatch.context() as patched:
        for spec in harness.CHECKS.values():
            patched.setattr(harness, spec.fn, lambda *args: False)
        for campaign in harness.CAMPAIGNS:
            r = harness.run(campaign, 2, 2, samples=20, seed=3, threads=1)
            assert r.passed == 0 and r.failed + r.skipped == r.attempted > 0
            payloads.extend(json.loads(json.dumps(r.to_dict()))["counterexamples"])
    assert {p["check"] for p in payloads} == set(harness.CHECKS)
    for payload in payloads:
        assert harness.replay(payload) is True, payload


def _misclassify_rank_two(monkeypatch):
    """Make ``harness.classify_leaf`` name the next rank-2 stratum instead of the right one."""
    real = harness.classify_leaf

    def faulty(x):
        L = real(x)
        if L.t != 2:
            return L
        peers = [P for P in harness.all_leaves(L.m, L.n) if P.t == 2]
        return peers[(peers.index(L) + 1) % len(peers)]

    monkeypatch.setattr(harness, "classify_leaf", faulty)


@pytest.mark.parametrize("campaign", ["partition", "thm42_equiv", "closure_order"])
def test_sampled_failures_replay_the_sampled_check(monkeypatch, campaign):
    _misclassify_rank_two(monkeypatch)
    r = harness.run(campaign, 4, 4, samples=30, seed=0, threads=1)
    assert r.failed > 0
    for payload in r.counterexamples:
        assert len(payload["leaves"]) == 13  # the sampled indices, not all 6,902
        assert harness.replay(payload) is False, payload


def _forbid_listing_above_the_limit(monkeypatch):
    """Make ``all_leaves`` fail the test on a shape with more than ``_EXHAUSTIVE_LIMIT``
    strata, counted by the closed form, so nothing lists such a shape unseen."""
    real = harness.all_leaves

    def guarded(m, n):
        if sum(rank_count(m, n, t) for t in range(min(m, n) + 1)) > harness._EXHAUSTIVE_LIMIT:
            pytest.fail(f"all_leaves({m}, {n}) listed above the limit")
        return real(m, n)

    monkeypatch.setattr(harness, "all_leaves", guarded)
    monkeypatch.setattr(leaves, "all_leaves", guarded)


@pytest.mark.parametrize("m, n", [(6, 6), (7, 7)])
@pytest.mark.parametrize("campaign", ["partition", "thm42_equiv", "closure_order"])
def test_stream_campaigns_list_no_shape_above_the_limit(monkeypatch, campaign, m, n):
    _forbid_listing_above_the_limit(monkeypatch)
    r = harness.run(campaign, m, n, samples=4, seed=1, threads=1)
    assert r.failed == 0 and r.passed == r.attempted == 4


def test_a_sampled_6x6_payload_encodes_and_replays(monkeypatch):
    _forbid_listing_above_the_limit(monkeypatch)
    with monkeypatch.context() as patched:
        patched.setattr(harness, "check_classify_equiv", lambda *args: False)
        r = harness.run("partition", 6, 6, samples=3, seed=2, threads=1)
    assert r.failed == 3
    for payload in json.loads(json.dumps(r.to_dict()))["counterexamples"]:
        assert len(payload["leaves"]) == harness._OTHERS_PER_SAMPLE + 1
        assert harness.replay(payload) is True, payload


def test_a_payload_without_leaves_above_the_limit_is_refused(monkeypatch):
    # 7x7 has 2,193,664,790 strata: the count refuses it, and nothing lists them
    _forbid_listing_above_the_limit(monkeypatch)
    for m, n in [(7, 7), (3, 4)]:
        payload = {"check": "classify_equiv", "m": m, "n": n,
                   "matrix": RationalMatrix.zero(m, n).to_text()}
        with pytest.raises(ValueError, match="leaves"):
            harness.replay(payload)
    under = {"check": "classify_equiv", "m": 3, "n": 3,
             "matrix": RationalMatrix.zero(3, 3).to_text()}
    assert harness.replay(under) is True  # 230 strata: all of them, as a campaign checks


def test_a_shifted_view_fails_window_vs_bruhat(monkeypatch):
    class Shifted(leaves.LeafView):
        def __getitem__(self, k):
            return super().__getitem__((k + 1) % len(self))

    assert harness.check_window_vs_bruhat(2, 3)
    monkeypatch.setattr(harness, "leaf_view", Shifted)
    assert not harness.check_window_vs_bruhat(2, 3)
    assert not harness.run("counts", 2, 3, threads=1).ok


def test_factors_that_do_not_recompose_fail_criteria_agreement(monkeypatch):
    # A label is factored once per form (``sigma.decompose_partial``) for the library
    # and the harness alike, so a wrong factor also reaches the other double-cell
    # checks; the recomposition must catch it whatever they do.  Each form is
    # spoiled on its own, so both recompositions (of w1 and of w2) are covered.
    real = double_bruhat.decompose_partial

    def swap(p):  # first two images exchanged: the first dot moves to another row
        return p[1::-1] + p[2:]

    def spoiling(spoiled):
        # spoil ``y`` of w1 = y v0, or ``u`` of w2 = z0 u; at 2x2 both stay
        # ascending after position t, so the quadruple remains valid
        def wrong(w, form):
            first, second = real(w, form)
            if not w.rank() or form != spoiled:
                return first, second
            return (swap(first), second) if form == "yv" else (first, swap(second))
        return wrong

    for spoiled in ("yv", "zu"):
        with monkeypatch.context() as patched:
            patched.setattr(double_bruhat, "decompose_partial", spoiling(spoiled))
            r = harness.run("double_cells", 2, 2, samples=20, seed=3, threads=1)
            assert r.failed > 0
            assert "criteria_agreement" in {p["check"] for p in r.counterexamples}
            assert all(harness.replay(p) is False for p in r.counterexamples)
            # the recomposition itself catches it: on some cell the spoiled factors
            # still give the right nonemptiness, and only the recomposition fails
            cells = [DoubleCellIndex(w1, w2) for k in (1, 2)
                     for w1 in partial_perms(2, 2, k) for w2 in partial_perms(2, 2, k)]
            assert any(is_nonempty(d) == double_bruhat.nonempty_by_completion(d)
                       and not harness.check_criteria_agreement(d) for d in cells), spoiled
        assert all(harness.replay(p) is True for p in r.counterexamples)


def test_no_cell_of_a_double_cells_run_outlives_it(monkeypatch):
    # the cells are made as the campaign reaches them and kept by nothing after it
    refs = []

    def tracked(w1, w2):
        d = DoubleCellIndex(w1, w2)
        refs.append(weakref.ref(d))
        return d

    monkeypatch.setattr(harness, "DoubleCellIndex", tracked)
    r = harness.run("double_cells", 2, 3, samples=0, threads=1)
    gc.collect()
    assert r.failed == 0
    assert refs, "the run made no cell through harness.DoubleCellIndex"
    assert all(ref() is None for ref in refs)
