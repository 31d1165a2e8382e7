import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leaf_atlas import cli, harness
from leaf_atlas.jsonout import dumps
from leaf_atlas.leaves import all_leaves, enumerate_leaves, hasse
from perm_oracles import rank_count


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_json(capsys):
    code, out, err = run_cli(capsys, "leaves", "enumerate", "--m", "1", "--n", "1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["schema"] == "leaf-atlas/v1"
    assert payload["count"] == 2
    assert [leaf["w"] for leaf in payload["leaves"]] == [[1, 2], [2, 1]]


def test_enumerate_table_and_rank_filter(capsys):
    code, out, _ = run_cli(capsys, "leaves", "enumerate", "--m", "2", "--n", "2",
                           "--rank", "1", "--format", "table")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1 + 9  # header + nine rank-1 strata


def test_enumerate_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "leaves", "enumerate", "--m", "2", "--n", "2")
    _, second, _ = run_cli(capsys, "leaves", "enumerate", "--m", "2", "--n", "2")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("leaves", "enumerate", "--m", "2", "--n", "3"),
    ("leaves", "hasse", "--m", "2", "--n", "2", "--format", "json"),
    ("verify", "--campaign", "counts", "--m", "2", "--n", "2", "--threads", "1"),
])
def test_json_output_is_the_standard_indented_form(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_one_parser_serves_successive_calls(capsys):
    # One process, one cached parser: each call must match a fresh process,
    # so no parsed argument (such as --rank) carries over to the next call.
    calls = [("leaves", "enumerate", "--m", "0", "--n", "2"),
             ("leaves", "enumerate", "--m", "2", "--n", "2", "--rank", "1"),
             ("leaves", "enumerate", "--m", "2", "--n", "2"),
             ("dbc", "nonempty", "--w1", "3x3:1->3", "--w2", "3x3:3->1")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    alone = {}
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "leaf_atlas.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        alone[argv] = (proc.returncode, proc.stdout)
    assert alone[calls[0]][0] == 1
    for argv in calls + calls[::-1]:
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == alone[argv]
    assert cli._build_parser() is cli._build_parser()
    assert json.loads(run_cli(capsys, *calls[2])[1])["count"] == 14


def test_classify_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("0\n")
    code, out, _ = run_cli(capsys, "leaves", "classify", "--m", "1", "--n", "1",
                           "--matrix", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["leaf"]["w"] == [1, 2] and payload["leaf"]["dim"] == 0


def test_classify_json_matrix_and_closure_flag(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["1", "0", "2"], ["3", "0", "6"], ["2", "0", "4"]]))
    code, out, _ = run_cli(capsys, "leaves", "classify", "--m", "3", "--n", "3",
                           "--matrix", str(path), "--closure-of", "6,3,2,5,4,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["leaf"]["w"] == [6, 2, 3, 5, 4, 1]
    assert payload["closure_of"]["value"] is True


def test_classify_dimension_mismatch_is_domain_error(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("1 2\n3 4\n")
    code, out, err = run_cli(capsys, "leaves", "classify", "--m", "3", "--n", "3",
                             "--matrix", str(path))
    assert code == 1 and "error:" in err


def test_missing_file_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "leaves", "classify", "--m", "1", "--n", "1",
                           "--matrix", "/nonexistent/x.txt")
    assert code == 1 and "error:" in err


def test_hasse_dot_and_json(capsys):
    code, out, _ = run_cli(capsys, "leaves", "hasse", "--m", "1", "--n", "1")
    assert code == 0
    assert '"1,2" -> "2,1";' in out
    code, out, _ = run_cli(capsys, "leaves", "hasse", "--m", "1", "--n", "1",
                           "--format", "json")
    payload = json.loads(out)
    assert payload["edges"] == [[0, 1]]


def test_sigma_phi_inv_golden(capsys):
    code, out, _ = run_cli(capsys, "sigma", "phi-inv", "--w", "6,2,3,5,4,1",
                           "--m", "3", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == {"y": [3, 1, 2], "v": [1, 3, 2],
                                "z": [1, 2, 3], "u": [3, 1, 2], "t": 1}


def test_sigma_phi_forward(capsys):
    sigma = json.dumps({"y": [3, 1, 2], "v": [1, 3, 2],
                        "z": [1, 2, 3], "u": [3, 1, 2]})
    code, out, _ = run_cli(capsys, "sigma", "phi", "--m", "3", "--n", "3",
                           "--t", "1", "--sigma", sigma)
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == [1, 5, 4, 2, 3, 6]
    assert payload["leaf"]["w"] == [6, 2, 3, 5, 4, 1]


def test_sigma_phi_t_conflict(capsys):
    sigma = json.dumps({"y": [2, 1], "v": [1, 2], "z": [1, 2], "u": [2, 1], "t": 1})
    code, _, err = run_cli(capsys, "sigma", "phi", "--m", "2", "--n", "2",
                           "--t", "2", "--sigma", sigma)
    assert code == 1 and "error:" in err


def test_echelon_stratify(capsys):
    code, out, _ = run_cli(capsys, "echelon", "stratify", "--pattern", "col:3,1:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["strata"][0] == {"y": [2, 1, 3], "z": [2, 1, 3]}


def test_dbc_commands(capsys):
    code, out, _ = run_cli(capsys, "dbc", "nonempty",
                           "--w1", "3x3:1->3", "--w2", "3x3:3->1")
    assert code == 0 and json.loads(out)["nonempty"] is True
    code, out, _ = run_cli(capsys, "dbc", "decompose",
                           "--w1", "3x3:1->3", "--w2", "3x3:3->1")
    assert code == 0 and json.loads(out)["count"] == 4
    code, out, _ = run_cli(capsys, "dbc", "dense",
                           "--w1", "3x3:1->3", "--w2", "3x3:3->1")
    assert code == 0
    assert json.loads(out)["dense"] == {"y": [3, 1, 2], "v": [1, 2, 3],
                                        "z": [1, 2, 3], "u": [3, 1, 2], "t": 1}
    code, _, err = run_cli(capsys, "dbc", "decompose",
                           "--w1", "3x3:3->1", "--w2", "3x3:1->3")
    assert code == 1 and "error:" in err


def test_verify_success_and_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--campaign", "counts",
                           "--m", "2", "--n", "2", "--out", str(out_path))
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["campaign"] == "counts"
    assert report["failed"] == 0
    assert report["info"]["leaf_count"] == 14


def test_verify_stdout_byte_stable_modulo_wall_time(capsys):
    def normalized():
        _, out, _ = run_cli(capsys, "verify", "--campaign", "partition",
                            "--m", "1", "--n", "1", "--samples", "50",
                            "--seed", "7", "--threads", "1")
        payload = json.loads(out)
        payload.pop("wall_time")
        return payload

    assert normalized() == normalized()


@pytest.mark.parametrize("argv, message", [
    (("leaves", "enumerate", "--m", "x", "--n", "2"), "invalid int value: 'x'"),
    (("leaves", "enumerate", "--n", "2"), "the following arguments are required: --m"),
    (("verify", "--campaign", "nope", "--m", "2", "--n", "2"), "invalid choice: 'nope'"),
    (("nope",), "invalid choice: 'nope'"),
    ((), "the following arguments are required: command"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: leaf-atlas") and message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["leaves", "enumerate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: leaf-atlas leaves enumerate")


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake_run(campaign, m, n, samples=1000, seed=0, threads=None):
        return harness.VerificationReport(campaign, {}, failed=1)

    monkeypatch.setattr(cli.harness, "run", fake_run)
    code, out, _ = run_cli(capsys, "verify", "--campaign", "counts",
                           "--m", "2", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("text, m, n", [('["12","34"]', 2, 2), ("[[0.1,1]]", 1, 2),
                                        ("[[true,0]]", 1, 2)])
def test_classify_rejects_reinterpretable_json(tmp_path, capsys, text, m, n):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "leaves", "classify", "--m", str(m), "--n", str(n),
                             "--matrix", str(path))
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("matrix, argv", [
    ("1 1/0\n", ("leaves", "classify", "--m", "1", "--n", "2")),
    ('[["1/0"]]', ("leaves", "classify", "--m", "1", "--n", "1")),
    (None, ("sigma", "phi", "--m", "1", "--n", "1", "--t", "0", "--sigma", "[1]")),
    (None, ("sigma", "phi", "--m", "1", "--n", "1", "--t", "0",
            "--sigma", '{"y": [1], "v": [1], "z": [1]}')),
    (None, ("sigma", "phi", "--m", "1", "--n", "1", "--t", "0",
            "--sigma", '{"y": 5, "v": [1], "z": [1], "u": [1]}')),
    (None, ("verify", "--campaign", "partition", "--m", "2", "--n", "2",
            "--samples", "0")),
    (None, ("verify", "--campaign", "double_cells", "--m", "2", "--n", "2",
            "--samples", "-3")),
    (None, ("verify", "--campaign", "counts", "--m", "2", "--n", "2",
            "--threads", "0")),
    (None, ("leaves", "enumerate", "--m", "2", "--n", "2", "--rank", "5")),
    (None, ("leaves", "enumerate", "--m", "2", "--n", "2", "--rank", "-1")),
    (None, ("sigma", "phi-inv", "--w", "1", "--m", "0", "--n", "1")),
    (None, ("sigma", "phi-inv", "--w", "3,2,1", "--m", "3", "--n", "0")),
    (None, ("dbc", "nonempty", "--w1", "0x0:", "--w2", "0x0:")),
    (None, ("dbc", "decompose", "--w1", "0x3:", "--w2", "0x3:")),
    (None, ("dbc", "dense", "--w1", "2x0:", "--w2", "2x0:")),
], ids=["text-zero-denominator", "json-zero-denominator", "sigma-not-an-object",
        "sigma-without-u", "sigma-field-not-a-list", "verify-zero-samples",
        "verify-negative-samples", "verify-zero-threads", "enumerate-rank-above",
        "enumerate-rank-negative", "phi-inv-zero-rows", "phi-inv-zero-cols",
        "dbc-nonempty-empty-grid", "dbc-decompose-zero-rows", "dbc-dense-zero-cols"])
def test_malformed_input_is_a_domain_error(tmp_path, capsys, matrix, argv):
    if matrix is not None:
        path = tmp_path / "m.txt"
        path.write_text(matrix)
        argv += ("--matrix", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")


# Listings are streamed; each oracle below builds the whole text at once, as
# the one-shot writers did, and the CLI must match it byte for byte.

def _label(L):
    return ",".join(map(str, L.w))


def _enumerate_oracle(m, n, t, fmt):
    leaves = enumerate_leaves(m, n, t)
    if fmt == "table":
        rows = [f"{'w':<24}{'t':>4}{'dim':>5}"]
        rows += [f"{_label(L):<24}{L.t:>4}{L.dim:>5}" for L in leaves]
        return "\n".join(rows) + "\n"
    return dumps({"schema": cli.SCHEMA, "m": m, "n": n, "count": len(leaves),
                  "leaves": [L.to_dict() for L in leaves]}) + "\n"


def _hasse_oracle(m, n, fmt):
    nodes, covers = all_leaves(m, n), hasse(m, n)
    if fmt == "dot":
        lines = ["digraph leaves {", "  rankdir=BT;"]
        lines += [f'  "{_label(L)}" [dim={L.dim}, rank={L.t}];' for L in nodes]
        lines += [f'  "{_label(a)}" -> "{_label(b)}";' for a, b in covers]
        return "\n".join(lines + ["}"]) + "\n"
    index = {L: i for i, L in enumerate(nodes)}
    return dumps({"schema": cli.SCHEMA, "m": m, "n": n,
                  "nodes": [L.to_dict() for L in nodes],
                  "edges": [[index[a], index[b]] for a, b in covers]}) + "\n"


# 1x11: labels of 26 characters, past the table's 24-character pad; 5x5:
# heads of five values and the two-digit value 10, at three ranks of a
# listing too long to build whole in the oracle
@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
                         + [(3, 4), (4, 3), (1, 11), (5, 5)])
def test_enumerate_streams_the_one_shot_text(capsys, m, n):
    for t in (0, 1, 5) if (m, n) == (5, 5) else (None, *range(min(m, n) + 1)):
        rank = () if t is None else ("--rank", str(t))
        for fmt in ("json", "table"):
            code, out, err = run_cli(capsys, "leaves", "enumerate", "--m", str(m),
                                     "--n", str(n), *rank, "--format", fmt)
            assert (code, err) == (0, "")
            assert out == _enumerate_oracle(m, n, t, fmt), (t, fmt)


# 1x5 and 3x4 rank positions inside the completions shared across ranks
@pytest.mark.parametrize("m,n", [(1, 5), (5, 1), (3, 4)])
def test_enumerate_json_count_is_the_number_of_records(capsys, m, n):
    for t in (None, *range(min(m, n) + 1)):
        rank = () if t is None else ("--rank", str(t))
        code, out, err = run_cli(capsys, "leaves", "enumerate", "--m", str(m), "--n", str(n),
                                 *rank)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["count"] == len(doc["leaves"]) > 0, t
        assert t is None or {L["t"] for L in doc["leaves"]} == {t}


@pytest.mark.parametrize("m,n", [(m, s - m) for s in range(2, 10) for m in range(1, s)])
def test_enumerate_json_count_is_the_closed_form(capsys, m, n):
    for t in range(min(m, n) + 1):
        code, out, err = run_cli(capsys, "leaves", "enumerate", "--m", str(m), "--n", str(n),
                                 "--rank", str(t))
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == rank_count(m, n, t), t


def test_enumerate_json_walks_once(monkeypatch, capsys):
    calls = []

    def spy(*args):
        calls.append(args)
        return walk_heads(*args)

    walk_heads = cli._walk_heads
    monkeypatch.setattr(cli, "_walk_heads", spy)
    for rank in ((), ("--rank", "2")):
        calls.clear()
        code, out, _ = run_cli(capsys, "leaves", "enumerate", "--m", "3", "--n", "4", *rank)
        assert code == 0 and json.loads(out)["count"] > 0
        assert calls == [(3, 4, None if not rank else 2)]


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (3, 4)])
def test_hasse_streams_the_one_shot_text(capsys, m, n):
    for fmt in ("json", "dot"):
        code, out, err = run_cli(capsys, "leaves", "hasse", "--m", str(m), "--n", str(n),
                                 "--format", fmt)
        assert (code, err) == (0, "")
        assert out == _hasse_oracle(m, n, fmt), fmt


class _Writes(io.StringIO):
    """A text stream that records the size of every ``write``."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("argv, size", [
    (("leaves", "enumerate", "--m", "4", "--n", "4"), 1_236_729),
    (("leaves", "enumerate", "--m", "4", "--n", "4", "--format", "table"), None),
    (("leaves", "hasse", "--m", "3", "--n", "4", "--format", "json"), None),
    (("leaves", "hasse", "--m", "3", "--n", "4", "--format", "dot"), None),
])
def test_listings_are_written_a_piece_at_a_time(monkeypatch, argv, size):
    stream = _Writes()
    monkeypatch.setattr(sys, "stdout", stream)
    assert cli.main(list(argv)) == 0
    assert sum(stream.sizes) == len(stream.getvalue())
    assert size is None or len(stream.getvalue()) == size
    assert len(stream.sizes) > 1000 and max(stream.sizes) < 4096


@pytest.mark.parametrize("argv", [
    ("leaves", "enumerate", "--m", "0", "--n", "2"),
    ("leaves", "enumerate", "--m", "2", "--n", "2", "--rank", "3"),
    ("leaves", "enumerate", "--m", "0", "--n", "2", "--format", "table"),
    ("leaves", "enumerate", "--m", "2", "--n", "2", "--rank", "3", "--format", "table"),
    ("leaves", "hasse", "--m", "0", "--n", "2"),
    ("leaves", "hasse", "--m", "0", "--n", "2", "--format", "json"),
])
def test_bad_input_writes_nothing_to_stdout(monkeypatch, capsys, argv):
    stream = _Writes()
    monkeypatch.setattr(sys, "stdout", stream)
    assert cli.main(list(argv)) == 1
    assert stream.sizes == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_closed_pipe_is_one_error_line():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen([sys.executable, "-m", "leaf_atlas.cli", "leaves", "enumerate",
                           "--m", "4", "--n", "4"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()  # the 1.2 MB listing cannot fit in the pipe's buffer
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.wait()
    assert err.decode() == "error: [Errno 32] Broken pipe\n"


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # harness.run imports the pool only when it runs one (threads > 1)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, leaf_atlas.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")
