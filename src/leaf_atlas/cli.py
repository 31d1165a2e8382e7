"""Command-line front end.

Subcommands cover enumeration, classification, the Hasse diagram, the
quadruple bijection, echelon stratification, double cells, and the
verification campaigns.  Output is JSON by default (schema-tagged, byte
stable for fixed inputs and seeds); ``--format table``/``dot`` where noted.
Listings are written one record or line at a time, after all validation
is done; the stratum listings are rendered from one walk's heads and shared
tails, the table as the strata are found and JSON after the held heads give
its count.
Exit codes: 0 success, 1 domain or usage error, 2 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterator, Optional, Sequence

from . import harness
from .double_bruhat import DoubleCellIndex, decompose, dense_orbit, is_nonempty
from .echelon import COLUMN, parse_pattern, stratify_pattern
from .exact_matrix import load_matrix
from .harness import SCHEMA
from .jsonout import Text, dump, dumps
from .leaves import LeafIndex, _walk_heads, all_leaves, classify_leaf, hasse, hasse_dot, in_leaf
from .permutations import check_perm, parse_partial
from .sigma import SigmaTuple, phi, phi_inv, phi_to_leaf


def _strata(m: int, n: int, t: Optional[int], sep: str) -> Iterator[tuple[str, int, int, list]]:
    """
    The strata of ``_walk(m, n, t)`` as text, one head of the walk at a
    time: ``(h, r, d, entries)``, whose strata are written ``h + s`` (the
    values of ``w`` joined by ``sep``) and have rank ``r + tr`` and dimension
    ``d + td``, for each ``(s, tr, td)`` of ``entries``.  ``h`` is made once
    per head, and ``s`` once per tail the walk shares between heads.  The
    shape is checked before the iterator is made.
    """
    made: dict[tuple, list] = {}  # (id of a tail the walk holds, rank wanted) -> entries

    def text(head: tuple) -> tuple:
        p, r, d, tail = head
        want = None if t is None else t - r
        entries = made.get((id(tail), want))
        if entries is None:
            entries = made[id(tail), want] = [(sep.join(map(str, s)), tr, td)
                                              for s, tr, td in tail if want in (None, tr)]
        return "".join([str(x) + sep for x in p]), r, d, entries

    return map(text, _walk_heads(m, n, t))


def _json_strata(m: int, n: int, t: Optional[int]) -> tuple[int, Iterator[list[str]]]:
    """
    The ``LeafIndex.to_dict`` records of ``_walk(m, n, t)`` as ``(count,
    chunks)``: the texts of ``chunks``, one per record and a list per head,
    make up the text ``dumps`` writes for the list of the records as a value
    of a document.  Every piece of that layout is cut from ``dumps`` of two
    records with ``Text("%d")`` for each number (and two values of ``w``,
    since the pieces between values are alike).  The heads are held, so
    ``count`` comes before the records.
    """
    rec = {"w": [Text("%d")] * 2, "m": m, "n": n, "t": Text("%d"), "dim": Text("%d")}
    first, sep, rank, dim, between, *_, close = dumps([rec, rec], "\n  ").split("%d")
    heads = list(_strata(m, n, t, sep))
    ranks = [rank + str(k) + dim for k in range(min(m, n) + 1)]
    dims = list(map(str, range(m * n + 1)))

    def chunks() -> Iterator[list[str]]:
        lead = first
        for h, r, d, entries in heads:
            if entries:
                h = between + h
                texts = [h + s + ranks[r + tr] + dims[d + td] for s, tr, td in entries]
                if lead:  # the first record opens the list
                    texts[0], lead = lead + texts[0][len(between):], ""
                yield texts
        yield [close]

    return sum(len(entries) for *_, entries in heads), chunks()


def _dump_lists(doc: dict, lists: dict[str, Iterator[list[str]]]) -> None:
    """
    ``dump({**doc, **lists}, sys.stdout)``, where each value of ``lists`` is
    a nonempty list given as the chunks of the text ``dumps`` writes for it
    as a value of a document: one write per text of a chunk.
    """
    item = Text("\0")  # a list's place in the layout; dumps escapes a "\0" in any string
    texts = (dumps({**doc, **dict.fromkeys(lists, item)}) + "\n").split(item)
    for text, chunks in zip(texts, lists.values()):
        sys.stdout.write(text)
        for c in chunks:
            sys.stdout.writelines(c)
    sys.stdout.write(texts[-1])


def _parse_perm(text: str):
    return check_perm(int(x) for x in text.split(","))


def _cmd_leaves_enumerate(args) -> int:
    m, n, t = args.m, args.n, args.rank
    if args.format == "table":  # written as the walk goes
        heads = _strata(m, n, t, ",")
        ranks = ["%4d" % k for k in range(min(m, n) + 1)]
        dims = ["%5d\n" % k for k in range(m * n + 1)]
        sys.stdout.write(f"{'w':<24}{'t':>4}{'dim':>5}\n")
        for h, r, d, entries in heads:
            sys.stdout.writelines([(h + s).ljust(24) + ranks[r + tr] + dims[d + td]
                                   for s, tr, td in entries])
        return 0
    count, chunks = _json_strata(m, n, t)  # count precedes the records
    _dump_lists({"schema": SCHEMA, "m": m, "n": n, "count": count}, {"leaves": chunks})
    return 0


def _cmd_leaves_classify(args) -> int:
    with open(args.matrix, encoding="utf-8") as fh:
        x = load_matrix(fh.read())
    if (x.rows, x.cols) != (args.m, args.n):
        raise ValueError(f"matrix is {x.rows}x{x.cols}, expected {args.m}x{args.n}")
    leaf = classify_leaf(x)
    payload = {"schema": SCHEMA, "leaf": leaf.to_dict()}
    if args.closure_of:
        target = LeafIndex.from_w(_parse_perm(args.closure_of), args.m, args.n)
        payload["closure_of"] = {"w": list(target.w),
                                 "value": in_leaf(x, target, "closure")}
    dump(payload, sys.stdout)
    return 0


def _cmd_leaves_hasse(args) -> int:
    if args.format == "dot":
        sys.stdout.writelines(hasse_dot(args.m, args.n))
        return 0
    m, n = args.m, args.n
    covers = hasse(m, n)
    index = {L: i for i, L in enumerate(all_leaves(m, n))}
    first, sep, between, _, close = dumps([[Text("%d")] * 2] * 2, "\n  ").split("%d")
    leads = chain([first], repeat(between))
    edges = ([lead + str(index[a]) + sep + str(index[b])] for lead, (a, b) in zip(leads, covers))
    _dump_lists({"schema": SCHEMA, "m": m, "n": n},
                {"nodes": _json_strata(m, n, None)[1],  # in the order of all_leaves
                 "edges": chain(edges, [[close]])})
    return 0


def _cmd_sigma_phi(args) -> int:
    raw = json.loads(args.sigma)
    if not isinstance(raw, dict):
        raise ValueError(f"--sigma must be a JSON object, got {args.sigma}")
    raw.setdefault("t", args.t)
    if raw["t"] != args.t:
        raise ValueError(f"--t {args.t} contradicts sigma JSON t={raw['t']}")
    sig = SigmaTuple.from_dict(raw)
    if (sig.m, sig.n) != (args.m, args.n):
        raise ValueError(f"sigma is for {sig.m}x{sig.n}, expected {args.m}x{args.n}")
    dump({"schema": SCHEMA, "phi": list(phi(sig)),
          "leaf": phi_to_leaf(sig).to_dict()}, sys.stdout)
    return 0


def _cmd_sigma_phi_inv(args) -> int:
    leaf = LeafIndex.from_w(_parse_perm(args.w), args.m, args.n)
    dump({"schema": SCHEMA, "sigma": phi_inv(leaf).to_dict(),
          "leaf": leaf.to_dict()}, sys.stdout)
    return 0


def _cmd_echelon_stratify(args) -> int:
    pat = parse_pattern(args.pattern)
    roles = ("y", "z") if pat.kind == COLUMN else ("u", "v")
    pairs = stratify_pattern(pat)
    dump({"schema": SCHEMA, "pattern": pat.literal(), "kind": pat.kind,
          "count": len(pairs),
          "strata": ({roles[0]: list(a), roles[1]: list(b)} for a, b in pairs)},
         sys.stdout)
    return 0


def _cmd_dbc(args) -> int:
    d = DoubleCellIndex(parse_partial(args.w1), parse_partial(args.w2))
    if args.dbc_cmd == "nonempty":
        dump({"schema": SCHEMA, "nonempty": is_nonempty(d)}, sys.stdout)
        return 0
    if args.dbc_cmd == "decompose":
        orbits = decompose(d)
        dump({"schema": SCHEMA, "count": len(orbits),
              "orbits": map(SigmaTuple.to_dict, orbits)}, sys.stdout)
        return 0
    dump({"schema": SCHEMA, "dense": dense_orbit(d).to_dict()}, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    report = harness.run(args.campaign, args.m, args.n,
                         samples=args.samples, seed=args.seed,
                         threads=args.threads)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            dump(report.to_dict(), fh)
    else:
        dump(report.to_dict(), sys.stdout)
    return 0 if report.ok else 2


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leaf-atlas",
        description="Exact stratification of the m x n matrix space into "
                    "torus orbits of symplectic leaves.")
    sub = parser.add_subparsers(dest="command", required=True)
    shape = argparse.ArgumentParser(add_help=False)  # the shape of six subcommands
    shape.add_argument("--m", type=int, required=True)
    shape.add_argument("--n", type=int, required=True)

    leaves_p = sub.add_parser("leaves", help="stratum enumeration and classification")
    leaves_sub = leaves_p.add_subparsers(dest="leaves_cmd", required=True)

    p = leaves_sub.add_parser("enumerate", parents=[shape])
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=_cmd_leaves_enumerate)

    p = leaves_sub.add_parser("classify", parents=[shape])
    p.add_argument("--matrix", required=True, help="matrix file (text or JSON)")
    p.add_argument("--closure-of", default=None, metavar="W",
                   help="also test closure membership for this index (comma-separated)")
    p.set_defaults(func=_cmd_leaves_classify)

    p = leaves_sub.add_parser("hasse", parents=[shape])
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.set_defaults(func=_cmd_leaves_hasse)

    sigma_p = sub.add_parser("sigma", help="the quadruple bijection")
    sigma_sub = sigma_p.add_subparsers(dest="sigma_cmd", required=True)

    p = sigma_sub.add_parser("phi", parents=[shape])
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sigma", required=True, help='JSON {"y":[..],"v":[..],"z":[..],"u":[..]}')
    p.set_defaults(func=_cmd_sigma_phi)

    p = sigma_sub.add_parser("phi-inv", parents=[shape])
    p.add_argument("--w", required=True, help="comma-separated one-line notation")
    p.set_defaults(func=_cmd_sigma_phi_inv)

    echelon_p = sub.add_parser("echelon", help="echelon patterns")
    echelon_sub = echelon_p.add_subparsers(dest="echelon_cmd", required=True)
    p = echelon_sub.add_parser("stratify")
    p.add_argument("--pattern", required=True,
                   help='"col:m,t:1,3,4" or "row:t,n:2,4,5"')
    p.set_defaults(func=_cmd_echelon_stratify)

    dbc_p = sub.add_parser("dbc", help="generalized double Bruhat cells")
    dbc_sub = dbc_p.add_subparsers(dest="dbc_cmd", required=True)
    for name in ("nonempty", "decompose", "dense"):
        p = dbc_sub.add_parser(name)
        p.add_argument("--w1", required=True, help='partial permutation literal "3x3:1->3"')
        p.add_argument("--w2", required=True)
        p.set_defaults(func=_cmd_dbc)

    p = sub.add_parser("verify", parents=[shape], help="run a verification campaign")
    p.add_argument("--campaign", required=True, choices=harness.CAMPAIGNS)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker count (default: all cores)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, message written
        if exc.code == 2:
            return 1
        raise  # --help
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
