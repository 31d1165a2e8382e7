"""The three benchmark workloads: inputs, one timed pass, output checks.

A workload object is built from a seed and one of its parts (input
generation is part of set-up), runs the part's timed section once with
``run``, then checks what the program returned with ``check``.  The checks
call no traced function, so a traced pass records only the timed section.
Library functions are reached through their modules
(``leaves.classify_leaf``), so installed trace wrappers are seen.

Why these workloads:

- ``classify`` is the per-matrix library path behind ``leaves classify
  --closure-of``.  Its time is in the exact kernels (``exact_matrix``) and
  ``cells``, almost none in the combinatorics; 4x4 and 10x10 inputs show how
  the kernels scale from the 8x8 to the 20x20 embedding.
- ``strata`` is a CLI session that makes no rank computation: its time goes
  to scanning permutations, building ``LeafIndex`` objects, Bruhat
  comparisons, double-cell decomposition and JSON output.  A change to
  classification should not move it.
- ``verify`` is the check sweep run after a change.  It alone runs the
  double-cell criteria scan, the echelon rejection sampler with its
  representative scan, and a membership-dominated exhaustive sweep (230
  ``in_leaf`` calls per classification), which reverses the ratio of
  membership to classification seen in ``classify``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time

import inputs
from leaf_atlas import cli, double_bruhat, exact_matrix, harness, leaves

DEFAULT_SEED = 0

STRATA_COUNTS = {(4, 4): 6902, (4, 5): 41506, (5, 4): 41506}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class _NoTrace:
    """Stand-in for a tracer when the pass is untraced."""
    request = None


class Classify:
    """Per matrix: build, ``classify_leaf``, ``classify_double``, and two ``in_leaf`` calls."""

    def __init__(self, seed: int, part: str) -> None:
        self.seed, self.part = seed, part
        self.items = inputs.classify_inputs(seed, part)

    def run(self, tracer=_NoTrace) -> dict:
        self.results = []
        latencies = []
        clock = time.perf_counter
        prev = None
        start = clock()
        for k, item in enumerate(self.items):
            tracer.request = f"{self.part}#{k}"
            t0 = clock()
            x = exact_matrix.RationalMatrix(item["matrix"])
            leaf = leaves.classify_leaf(x)
            dbl = double_bruhat.classify_double(x)
            own = leaves.in_leaf(x, leaf, "cell")
            closure = leaves.in_leaf(x, prev, "closure") if prev is not None else None
            latencies.append((clock() - t0) * 1e3)
            self.results.append((leaf, dbl, own, closure, prev))
            prev = leaf
        wall = clock() - start
        tracer.request = None
        return {"wall_s": wall, "latencies_ms": latencies, "ops": len(self.results)}

    def check(self, pinned: dict) -> dict:
        failed = 0
        verdicts = []
        for item, (leaf, dbl, own, closure, prev) in zip(self.items, self.results):
            rank = inputs.int_rank(item["matrix"])
            ok = (own is True and leaf.t == rank
                  and dbl.w1.rank() == dbl.w2.rank() == rank
                  and (prev is None
                       or closure == inputs.bruhat_leq(leaf.w, prev.w)))
            failed += not ok
            verdicts.append([list(leaf.w), dbl.w1.literal(), dbl.w2.literal(), own, closure])
        d = digest(verdicts)
        if self.seed == DEFAULT_SEED and d != pinned["classify"][self.part]:
            failed = len(self.results)  # the pinned sequence cannot say which op moved
        return {"attempted": len(self.results), "failed": failed, "digests": {"verdicts": d}}


def _cli(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), (time.perf_counter() - t0) * 1e3


class Strata:
    """
    A CLI session through ``cli.main`` with stdout captured.  Each heavy
    command (enumeration, Hasse diagram) is a part of its own; the ``light``
    part runs ``sigma phi-inv``, ``dbc nonempty`` (then ``decompose`` and
    ``dense`` on nonempty pairs) and ``echelon stratify``.
    """

    def __init__(self, seed: int, part: str) -> None:
        self.seed, self.part = seed, part
        self.inputs = None if part in inputs.HEAVY_COMMANDS else inputs.light_inputs(seed)

    def run(self, tracer=_NoTrace) -> dict:
        self.results = []  # (kind, argv, exit code, stdout, input)
        latencies = []
        start = time.perf_counter()

        def call(kind, argv, given=None):
            tracer.request = f"{self.part}#{len(self.results)}"
            code, out, ms = _cli(argv)
            self.results.append((kind, argv, code, out, given))
            latencies.append(ms)
            return code, out

        if self.inputs is None:
            call("heavy", list(inputs.HEAVY_COMMANDS[self.part]))
        else:
            for w in self.inputs["strata"]:
                call("phi-inv", ["sigma", "phi-inv", "--w", ",".join(map(str, w)),
                                 "--m", "4", "--n", "4"], w)
            for pp1, pp2 in self.inputs["pairs"]:
                pair = ["--w1", inputs.partial_literal(4, 4, pp1),
                        "--w2", inputs.partial_literal(4, 4, pp2)]
                code, out = call("nonempty", ["dbc", "nonempty"] + pair, (pp1, pp2))
                if code == 0 and json.loads(out)["nonempty"]:
                    call("decompose", ["dbc", "decompose"] + pair)
                    call("dense", ["dbc", "dense"] + pair)
            for pat in self.inputs["patterns"]:
                call("echelon", ["echelon", "stratify", "--pattern", pat])
        wall = time.perf_counter() - start
        tracer.request = None
        return {"wall_s": wall, "latencies_ms": latencies, "ops": len(self.results),
                "stdout_bytes": sum(len(r[3].encode()) for r in self.results)}

    def _ok(self, kind: str, argv: list[str], out: str, given, pinned: dict,
            orbits: list) -> bool:
        if kind == "heavy":
            if argv[1] == "enumerate":
                shape = (int(argv[3]), int(argv[5]))
                count = (len(out.splitlines()) - 1 if "table" in argv
                         else json.loads(out)["count"])
                if count != STRATA_COUNTS[shape]:
                    return False
            return digest(out) == pinned["strata_fixed"].get(" ".join(argv))
        if kind == "echelon":
            doc = json.loads(out)
            return (doc["count"] == len(doc["strata"]) >= 1
                    and digest(out) == pinned["strata_fixed"].get(" ".join(argv)))
        doc = json.loads(out)
        if kind == "phi-inv":
            return (doc["leaf"]["w"] == list(given)
                    and doc["sigma"]["t"] == inputs.rank_of_index(given, 4))
        if kind == "nonempty":
            return doc["nonempty"] == inputs.dbc_nonempty(*given)
        if kind == "decompose":
            orbits[:] = doc["orbits"]
            return doc["count"] == len(orbits) >= 1
        return doc["dense"] == orbits[0]  # dense: the base quadruple leads the decomposition

    def check(self, pinned: dict) -> dict:
        failed = 0
        seeded = []
        orbits: list = []
        for kind, argv, code, out, given in self.results:
            ok = code == 0 and self._ok(kind, argv, out, given, pinned, orbits)
            failed += not ok
            if kind not in ("heavy", "echelon"):
                seeded.append(out)
        d = digest(seeded)
        if self.inputs is not None and self.seed == DEFAULT_SEED and d != pinned["strata_seeded"]:
            failed = len(self.results)
        return {"attempted": len(self.results), "failed": failed,
                "digests": {"outputs": digest([r[3] for r in self.results])}}


class Verify:
    """``harness.run`` on one campaign, with ``threads=1`` passed explicitly."""

    def __init__(self, seed: int, part: str) -> None:
        self.seed, self.part = seed, part
        self.spec = next(c for c in inputs.VERIFY_CAMPAIGNS if c[0] == part)

    def run(self, tracer=_NoTrace) -> dict:
        campaign, m, n, samples = self.spec
        tracer.request = campaign
        start = time.perf_counter()
        self.report = harness.run(campaign, m, n, samples=samples, seed=self.seed, threads=1)
        wall = time.perf_counter() - start
        tracer.request = None
        return {"wall_s": wall, "ops": 1, "checks": self.report.attempted,
                "skipped": self.report.skipped}

    def check(self, pinned: dict) -> dict:
        r = self.report
        body = r.to_dict()
        body.pop("wall_time")
        d = digest(body)
        ok = (r.failed == 0 and r.attempted > 0
              and r.attempted == r.passed + r.failed + r.skipped)
        if self.part == "phi_bijection":  # one quadruple per stratum, over all ranks
            strata = sum(v for k, v in r.info.items() if k.startswith("sigma_count_"))
            ok = ok and strata == STRATA_COUNTS[(r.params["m"], r.params["n"])]
        if self.seed == DEFAULT_SEED:
            ok = ok and d == pinned["verify"].get(self.part)
        return {"attempted": 1, "failed": int(not ok), "digests": {"report": d}}


WORKLOADS = {"classify": Classify, "strata": Strata, "verify": Verify}
