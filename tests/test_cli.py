import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergeham
from bergeham.berge import BergeDecider
from bergeham.cli import run_cli
from bergeham.enumeration import LevelSpec, hypergraph_at, level_masks, pendant_copies
from bergeham.formats import parse_hypergraph_text, write_hypergraph_text
from bergeham.hypergraph import clique_plus_pendant, complete, universe_masks


def run(args):
    return run_cli(args)


def test_gen_round_trips(tmp_path):
    out = tmp_path / "h.txt"
    assert run(["gen", "--kind", "clique_plus_pendant", "--n", "6", "--r", "3", "--out", str(out)]) == 0
    assert parse_hypergraph_text(out.read_text()) == clique_plus_pendant(6, 3)


def test_lambda_outputs_bracket(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text(write_hypergraph_text(complete(5, 3)))
    assert run(["lambda", "--input", str(f)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"lower", "upper", "iterations", "converged"}
    assert abs(payload["lower"] - 6) < 1e-6 and payload["converged"]


def test_bound_lists_thresholds(capsys):
    assert run(["bound", "--n", "6", "--r", "3", "--m", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["thresholds"]["edge_cycle"] == 10
    assert payload["thresholds"]["spectral_cycle"] == 6
    assert payload["thresholds"]["klm_1i"] is None  # needs r <= (n-1)/2
    assert payload["bai_lu_bound"] > 6


def test_bound_at_the_spectral_threshold_and_past_the_float_range(capsys):
    # C(5, 3) = 10 edges on 6 vertices: the bound is exactly C(4, 2) = 6
    assert run(["bound", "--n", "6", "--r", "3", "--m", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["bai_lu_bound"] == 6.0
    assert run(["bound", "--n", "6", "--r", "3", "--m", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["bai_lu_bound"] < 6.0
    for n, r, m in ((6, 3, 10 ** 400), (9, 8, 10 ** 304)):  # too large for a float; m * 8! overflows
        assert run(["bound", "--n", str(n), "--r", str(r), "--m", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "NaN" not in captured.err


def test_bound_rejects_r_outside_2_to_n(capsys):
    # as gen does, rather than a bound with an all-null threshold table
    for n, r in ((3, 5), (6, 7), (6, 1)):
        assert run(["bound", "--n", str(n), "--r", str(r), "--m", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: need 2 <= r <= n, got r={r}, n={n}\n"


def test_lambda_rejects_max_iter_below_one(tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text(write_hypergraph_text(complete(5, 3)))
    for bad in ("0", "-5"):
        assert run(["lambda", "--input", str(f), "--max-iter", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--max-iter must be at least 1, got {bad}" in captured.err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_nonfinite_tol_exits_2(tmp_path, capsys, tol):
    f = tmp_path / "h.txt"
    f.write_text(write_hypergraph_text(complete(5, 3)))
    assert run(["lambda", "--input", str(f), "--tol", tol]) == 2
    assert run(["verify", "spectral", "--n", "5", "--r", "3", "--samples", "4", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count(f"need a finite tol > 0, got {tol}") == 2


def test_check_berge_reports_none_with_exit_zero(tmp_path, capsys):
    f = tmp_path / "kpe.txt"
    f.write_text(write_hypergraph_text(clique_plus_pendant(6, 3)))
    assert run(["check-berge", "--input", str(f), "--kind", "cycle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is False and payload["certificate"] is None
    assert payload["reason"] == "search_exhausted"


def test_check_berge_path_endpoints(tmp_path, capsys):
    f = tmp_path / "k.txt"
    f.write_text(write_hypergraph_text(complete(4, 3)))
    assert run(["check-berge", "--input", str(f), "--kind", "path", "--endpoints", "0,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["certificate"]["vertices"][0] == 0


def test_check_cert_accepts_and_rejects(tmp_path, capsys):
    f = tmp_path / "k.txt"
    f.write_text(write_hypergraph_text(complete(4, 3)))
    assert run(["check-berge", "--input", str(f), "--kind", "cycle"]) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    good = tmp_path / "cert.json"
    good.write_text(json.dumps(cert))
    assert run(["check-cert", "--input", str(f), "--cert", str(good)]) == 0
    assert json.loads(capsys.readouterr().out)["accepted"] is True

    cert["edges"][0] = cert["edges"][1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert run(["check-cert", "--input", str(f), "--cert", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted"] is False and payload["violations"]


MALFORMED_CERTIFICATES = [
    {"kind": "cycle", "vertices": [0, 1.9, 2], "edges": [[0, 2], [0, 1], [1, 2]]},
    {"kind": "cycle", "vertices": [0, True, 2], "edges": [[0, 2], [0, 1], [1, 2]]},
    {"kind": "cycle", "vertices": [0, 1, 2], "edges": [[0, 2], [0, 1.0], [1, 2]]},
    {"kind": "path", "vertices": [0, 1, 2], "edges": [1, 2]},
    [{"kind": "path", "vertices": [0, 1], "edges": [[0, 1]]}],
]


@pytest.mark.parametrize("cert", MALFORMED_CERTIFICATES)
def test_check_cert_rejects_malformed_json_with_exit_2(tmp_path, capsys, cert):
    f = tmp_path / "k3.txt"
    f.write_text(write_hypergraph_text(complete(3, 2)))
    c = tmp_path / "cert.json"
    c.write_text(json.dumps(cert))
    assert run(["check-cert", "--input", str(f), "--cert", str(c)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("graph", [
    {"n": [3], "r": 2, "edges": [[0, 1]]},
    {"n": 3, "r": 2, "edges": [["a", "b"]]},
    {"n": 3, "r": 2, "edges": [[0, 1.0]]},
])
def test_malformed_hypergraph_json_exits_2(tmp_path, capsys, graph):
    f = tmp_path / "h.json"
    f.write_text(json.dumps(graph))
    assert run(["canon", "--input", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_lemma21_passes(capsys):
    assert run(["verify", "lemma21", "--n", "5", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("n,r,m,")
    assert out[1].split(",")[5] == "30"  # nonhamiltonian column


def test_verify_edges_json(capsys):
    assert run(["verify", "edges", "--n", "5", "--r", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True


def test_budget_exceeded_exits_2(capsys):
    assert run(["verify", "edges", "--n", "8", "--r", "3", "--budget", "1000"]) == 2
    err = capsys.readouterr().err
    assert "infeasible" in err and "785613562163430" in err


def test_negative_counts_exit_2(capsys):
    assert run(["verify", "spectral", "--n", "5", "--r", "3", "--samples", "-1"]) == 2
    assert "samples must be non-negative, got -1" in capsys.readouterr().err
    assert run(["verify", "lemma21", "--n", "5", "--jobs", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "jobs must be at least 1, got -3" in captured.err
    # before the check, -1 reported the level as infeasible past a budget of -1
    assert run(["verify", "lemma21", "--n", "5", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: budget must be non-negative, got -1" in captured.err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "lemma21"])  # missing --n
    assert exc.value.code == 2


def test_bad_input_file_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.txt"
    f.write_text("5 3 1\n0 1 9\n")
    assert run(["lambda", "--input", str(f)]) == 2
    assert "error" in capsys.readouterr().err


def test_canon_subcommand(tmp_path, capsys):
    f = tmp_path / "k.txt"
    f.write_text(write_hypergraph_text(complete(4, 3)))
    assert run(["canon", "--input", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["canonical"].startswith("4.3:")


def _stderr_lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]


def test_verify_verbose_streams_one_progress_line_per_chunk(capsys):
    assert run(["verify", "lemma21", "--n", "5", "--verbose", "--format", "csv"]) == 0
    lines = _stderr_lines(capsys)
    # one chunk per level: m=5 (252 graphs) and m=6 (210 graphs)
    assert [(line["m"], line["mode"], line["chunk"]) for line in lines] == [
        (5, "all_labeled", [0, 252]),
        (6, "all_labeled", [0, 210]),
    ]
    assert [(line["visited"], line["nonhamiltonian"]) for line in lines] == [(252, 30), (210, 0)]
    # the first 20 of the 30 negative ranks, straight from the decider
    spec = LevelSpec(5, 3, 5)
    d = BergeDecider(5, universe_masks(5, 3))
    negatives = [rank for rank, chosen in enumerate(level_masks(spec, range(252)).tolist())
                 if not d.cycle_exists(chosen)]
    assert lines[0]["negative_ranks"] == negatives[:20]
    assert lines[1]["negative_ranks"] == []
    assert all("exceptions" not in line and "base" not in line for line in lines)


def test_verbose_closure_lines_name_their_base(capsys):
    assert run(["verify", "edges", "--n", "5", "--r", "3", "--verbose", "--format", "csv"]) == 0
    lines = _stderr_lines(capsys)
    closure = [line for line in lines if line["mode"] == "supergraphs"]
    assert len(closure) == 30 and {line["m"] for line in closure} == {6}
    # each base is one labeled copy of the pendant exception, as a universe mask
    assert {line["base"] for line in closure} == pendant_copies(5, 3)
    assert all(hypergraph_at(5, 3, line["base"]).m == 5 for line in closure)
    # a line's ranks rebuild into supergraphs of its base, as README says
    for line in closure:
        lo, _ = line["chunk"]
        h = hypergraph_at(5, 3, int(level_masks(LevelSpec(5, 3, line["m"], line["base"]), [lo])[0]))
        assert set(hypergraph_at(5, 3, line["base"]).edges) < set(h.edges) and h.m == 6


def test_verbose_is_a_verify_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--verbose", "verify", "lemma21", "--n", "5"])
    assert exc.value.code == 2


def test_python_dash_m_runs_the_command(tmp_path):
    # python -m bergeham works from a source tree, with no install
    env = {**os.environ, "PYTHONPATH": str(Path(bergeham.__file__).resolve().parent.parent)}
    out = subprocess.run(
        [sys.executable, "-m", "bergeham", "verify", "lemma21", "--n", "5"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["passed"]
