"""Span tracing installed around the public functions of ``leaf_atlas``.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each traced
function by a timing wrapper and rebinds every name in the package that
refers to the original, since ``from .x import f`` leaves a separate
binding in each importing module.  Functions called on the order of 10^5
times per run (``COUNT`` mode) are recorded as a count plus summed time,
attributed to the enclosing span; the rest (``SPAN`` mode) record one span
per call.  Generator functions are timed across their resumptions.

``leaves._split_blocks`` holds ``block_split`` through ``lru_cache``, out of
reach of any wrapper, so ``block_split`` is not traced.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

import inputs

SPAN, COUNT = "span", "count"

# (module, attribute path, mode): the public functions the workloads reach.
# The metric name is ``module.path``; a constructor ``Cls.__init__`` or
# classmethod ``Cls.from_w`` is named ``module.Cls``.
TARGETS = (
    ("exact_matrix", "RationalMatrix.__init__", COUNT),
    ("exact_matrix", "RationalMatrix.__matmul__", COUNT),
    ("exact_matrix", "RationalMatrix.transpose", COUNT),
    ("exact_matrix", "RationalMatrix.scaled", COUNT),
    ("exact_matrix", "rank", COUNT),
    ("exact_matrix", "rank_profile", SPAN),
    ("exact_matrix", "interval_column_ranks", SPAN),
    ("exact_matrix", "interval_row_ranks", SPAN),
    ("exact_matrix", "sample_rank", SPAN),
    ("exact_matrix", "sample_echelon_col", SPAN),
    ("exact_matrix", "sample_echelon_row", SPAN),
    ("cells", "classify", SPAN),
    ("cells", "pp_rank_profile", SPAN),
    ("leaves", "LeafIndex.from_w", COUNT),
    ("leaves", "classify_leaf", SPAN),
    ("leaves", "leaf_profile", SPAN),
    ("leaves", "in_leaf", COUNT),
    ("leaves", "enumerate_leaves", SPAN),
    ("leaves", "hasse", SPAN),
    ("leaves", "hasse_dot", SPAN),
    ("permutations", "bruhat_leq", COUNT),
    ("permutations", "partial_perms", COUNT),
    ("permutations", "min_reps_first", COUNT),
    ("permutations", "min_reps_last", COUNT),
    ("permutations", "parse_partial", COUNT),
    ("permutations", "PartialPerm.__init__", COUNT),
    ("sigma", "SigmaTuple.__init__", COUNT),
    ("sigma", "enumerate_sigma", SPAN),
    ("sigma", "phi", COUNT),
    ("sigma", "phi_inv", COUNT),
    ("sigma", "phi_to_leaf", COUNT),
    ("sigma", "decompose_partial", COUNT),
    ("double_bruhat", "is_nonempty", COUNT),
    ("double_bruhat", "decompose", SPAN),
    ("double_bruhat", "dense_orbit", SPAN),
    ("double_bruhat", "classify_double", SPAN),
    ("echelon", "all_patterns", SPAN),
    ("echelon", "parse_pattern", COUNT),
    ("echelon", "in_pattern", COUNT),
    ("echelon", "stratify_pattern", SPAN),
    ("echelon", "column_stratum_sigma", COUNT),
    ("echelon", "column_stratum_representative", SPAN),
    ("echelon", "sample_column_stratum", SPAN),
    ("echelon", "sample_row_stratum", SPAN),
    ("harness", "run", SPAN),
    ("harness", "sample_stream", COUNT),
    ("harness", "check_unique_membership", SPAN),
    ("harness", "check_classify_equiv", SPAN),
    ("harness", "check_closure_order", SPAN),
    ("harness", "check_block_classes", SPAN),
    ("harness", "check_sigma_in_double_cell", SPAN),
    ("harness", "check_criteria_agreement", SPAN),
    ("harness", "check_dense_orbit", SPAN),
    ("harness", "check_echelon_member", SPAN),
    ("harness", "check_echelon_stratum", SPAN),
    ("harness", "check_product", SPAN),
    ("harness", "check_torus_stability", SPAN),
    ("harness", "check_phi_roundtrip", SPAN),
    ("harness", "check_leaf_roundtrip", SPAN),
    ("harness", "check_sigma_count", SPAN),
    ("harness", "check_pp_count", SPAN),
    ("cli", "main", SPAN),
)

LAYERS = ("exact_matrix", "cells", "leaves", "permutations", "sigma",
          "double_bruhat", "echelon", "harness", "cli")


def _metric_name(module: str, path: str) -> str:
    cls, _, attr = path.rpartition(".")
    if cls and attr in ("__init__", "from_w"):
        return f"{module}.{cls}"
    return f"{module}.{path}"


class Tracer:
    """
    In-memory spans and per-name totals for one run.

    ``stats[name]`` is ``[calls, total_s, self_s, none_results]``.  A span is
    ``(id, parent_id, request, name, start, end, self_s)``; ``attributed``
    maps ``(span_id, request, name)`` of a ``COUNT`` call to
    ``[calls, total_s]``, where ``span_id`` is the enclosing span.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.attributed: dict[tuple, list] = {}
        self.request = None
        # Frame: [child_time, enclosing span id].
        self._stack: list[list] = [[0.0, None]]
        self._next_id = 0

    def _wrap(self, fn, name: str, mode: str):
        stack, spans, attributed = self._stack, self.spans, self.attributed
        clock = time.perf_counter
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                stats[0] += 1
                while True:
                    parent = stack[-1]
                    frame = [0.0, parent[1]]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - start
                        stack.pop()
                        stats[1] += dt
                        stats[2] += dt - frame[0]
                        parent[0] += dt
                        key = (parent[1], tracer.request, name)
                        entry = attributed.get(key)
                        if entry is None:
                            attributed[key] = [0, dt]
                        else:
                            entry[1] += dt
                    yield item
            return gen_wrapper

        if mode == COUNT:
            def count_wrapper(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - start
                    stack.pop()
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - frame[0]
                    parent[0] += dt
                    key = (parent[1], tracer.request, name)
                    entry = attributed.get(key)
                    if entry is None:
                        attributed[key] = [1, dt]
                    else:
                        entry[0] += 1
                        entry[1] += dt
            return count_wrapper

        per_campaign = name == "harness.run"

        def span_wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            key = f"{name}.{args[0]}" if per_campaign else name
            st = tracer.stats.setdefault(key, [0, 0.0, 0.0, 0]) if per_campaign else stats
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                self_s = dt - frame[0]
                st[0] += 1
                st[1] += dt
                st[2] += self_s
                if result is None:
                    st[3] += 1
                parent[0] += dt
                spans.append((sid, parent[1], tracer.request, key, start, end, self_s))
        return span_wrapper

    def install(self) -> None:
        """Wrap every target and rebind each reference held by a ``leaf_atlas`` module."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "leaf_atlas" or name.startswith("leaf_atlas.")]
        for module, path, mode in TARGETS:
            mod = importlib.import_module(f"leaf_atlas.{module}")
            name = _metric_name(module, path)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(raw.__func__, name, mode)))
                else:
                    setattr(cls, attr, self._wrap(raw, name, mode))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name, mode)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def write(self, path: str) -> None:
        """Write spans and attributed counts as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "request", "name",
                                            "start", "end", "self_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (sid, request, name), (calls, total) in self.attributed.items():
                fh.write(json.dumps({"span": sid, "request": request, "name": name,
                                     "calls": calls, "total_s": total}) + "\n")

    # -----------------------------------------------------------------------

    def _get(self, name: str, field: int):
        return self.stats.get(name, [0, 0.0, 0.0, 0])[field]

    def layer_metrics(self) -> dict[str, float]:
        """
        Additive per-layer quantities of this run, by name: sums over the
        parts of a workload pass through ``finish``.
        """
        calls = lambda n: self._get(n, 0)
        total = lambda n: self._get(n, 1)
        self_s = lambda n: self._get(n, 2)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s[2] for n, s in self.stats.items()
                                         if n.startswith(layer + "."))
        em = "exact_matrix"
        out.update({
            f"{em}.RationalMatrix.calls": calls(f"{em}.RationalMatrix"),
            f"{em}.RationalMatrix.self_s": self_s(f"{em}.RationalMatrix"),
            f"{em}.rank_profile.calls": calls(f"{em}.rank_profile"),
            f"{em}.rank_profile.self_s": self_s(f"{em}.rank_profile"),
            f"{em}.interval_ranks.self_s": (self_s(f"{em}.interval_column_ranks")
                                            + self_s(f"{em}.interval_row_ranks")),
            f"{em}.rank.calls": calls(f"{em}.rank"),
            "cells.classify.calls": calls("cells.classify"),
            "cells.classify.self_s": self_s("cells.classify"),
            "cells.pp_rank_profile.self_s": self_s("cells.pp_rank_profile"),
            "leaves.classify_leaf.calls": calls("leaves.classify_leaf"),
            "leaves.classify_leaf.total_s": total("leaves.classify_leaf"),
            "leaves.leaf_profile.self_s": self_s("leaves.leaf_profile"),
            "leaves.in_leaf.calls": calls("leaves.in_leaf"),
            "leaves.in_leaf.self_s": self_s("leaves.in_leaf"),
            "leaves.LeafIndex.calls": calls("leaves.LeafIndex"),
            "leaves.LeafIndex.self_s": self_s("leaves.LeafIndex"),
            "leaves.enumerate_leaves.total_s": total("leaves.enumerate_leaves"),
            "leaves.hasse.total_s": total("leaves.hasse"),
            "permutations.bruhat_leq.calls": calls("permutations.bruhat_leq"),
            "permutations.bruhat_leq.self_s": self_s("permutations.bruhat_leq"),
            "permutations.partial_perms.self_s": self_s("permutations.partial_perms"),
            "sigma.phi_inv.calls": calls("sigma.phi_inv"),
            "sigma.phi_to_leaf.calls": calls("sigma.phi_to_leaf"),
            "sigma.decompose_partial.calls": calls("sigma.decompose_partial"),
            "sigma.enumerate_sigma.total_s": total("sigma.enumerate_sigma"),
            "double_bruhat.is_nonempty.calls": calls("double_bruhat.is_nonempty"),
            "double_bruhat.decompose.calls": calls("double_bruhat.decompose"),
            "double_bruhat.decompose.total_s": total("double_bruhat.decompose"),
            "double_bruhat.dense_orbit.total_s": total("double_bruhat.dense_orbit"),
        })
        ids = {s[0]: s[3] for s in self.spans}
        out.update({
            "echelon.sample_column_stratum.calls": calls("echelon.sample_column_stratum"),
            "echelon.sample_column_stratum.total_s": total("echelon.sample_column_stratum"),
            "echelon.column_stratum_representative.total_s":
                total("echelon.column_stratum_representative"),
            "echelon.sample_hits": (calls("echelon.sample_column_stratum")
                                    - self._get("echelon.sample_column_stratum", 3)),
            "echelon.sample_tries": sum(1 for s in self.spans
                                        if s[3] == "leaves.classify_leaf"
                                        and ids.get(s[1]) == "echelon.sample_column_stratum"),
        })
        for campaign, *_ in inputs.VERIFY_CAMPAIGNS:
            out[f"harness.run.{campaign}.total_s"] = total(f"harness.run.{campaign}")
        out["harness.check_criteria_agreement.total_s"] = total("harness.check_criteria_agreement")
        out["harness.check_dense_orbit.total_s"] = total("harness.check_dense_orbit")
        out["cli.main.calls"] = calls("cli.main")
        return out


def finish(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from summed ``layer_metrics``: turns raw tallies into ratios."""
    out = dict(raw)
    samples = out["echelon.sample_column_stratum.calls"]
    hits, tries = out.pop("echelon.sample_hits"), out.pop("echelon.sample_tries")
    out["echelon.sample_hit_ratio"] = hits / samples if samples else 0.0
    out["echelon.classify_per_sample"] = tries / samples if samples else 0.0
    return out
