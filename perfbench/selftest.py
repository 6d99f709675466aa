"""Tests of the benchmark itself, on tiny workload sizes.

Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so that the program's own test suite
does not pick it up.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import CAL_REF_S, DUTY, Reference, at_reference  # noqa: E402
from workloads import SMOKE, check_report, run_campaign, run_once  # noqa: E402

with open(ROOT / "BENCHMARK.json") as _f:
    BENCH = json.load(_f)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--smoke", "--seed", "3", "--seconds", "0.5", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_file_follows_its_limits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(SMOKE)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(SMOKE))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run_bench("--workload", workload, "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["lemma21-n7", "edges-6-3", "spectral-6-4"])
def test_campaign_reports_pass_their_checks(workload):
    w = SMOKE[workload]
    checks = check_report(w, run_campaign(w, seed=5))
    assert checks and all(want == got for _, want, got in checks)


@pytest.mark.parametrize("workload", ["lemma21-n7", "edges-6-3", "spectral-6-4"])
def test_chunked_campaign_with_pauses_passes_its_checks(workload):
    w = SMOKE[workload]
    pauses = []
    checks = check_report(w, run_campaign(w, seed=5, pause=lambda: pauses.append(1)))
    assert len(pauses) > 1
    assert checks and all(want == got for _, want, got in checks)


def test_reference_leaves_pauses_out_and_rescales():
    assert at_reference(2.0, CAL_REF_S) == 2.0
    assert at_reference(2.0, 2 * CAL_REF_S) < 1.0 < at_reference(1.0, CAL_REF_S / 2)
    ref = Reference()
    t0 = time.perf_counter()
    for _ in range(20):
        end = time.perf_counter() + 0.01
        while time.perf_counter() < end:
            pass
        ref.pause()
    wall = time.perf_counter() - t0
    paused = ref.paused
    work, _ = ref.rescale(wall)
    assert work == pytest.approx(wall - paused)
    assert 0.19 < work < 0.3
    assert sum(ref.slices) >= DUTY * work  # slices keep up with the work


@pytest.mark.parametrize("field, delta", [("negative", 1), ("scanned", -1), ("visited", 1)])
def test_a_corrupted_report_count_is_caught(field, delta):
    w = SMOKE["edges-6-3"]
    report = run_campaign(w, seed=5)
    for i, lv in enumerate(report.levels):
        bad = dataclasses.replace(report, levels=list(report.levels))
        bad.levels[i] = dataclasses.replace(lv, **{field: getattr(lv, field) + delta})
        failed = [name for name, want, got in check_report(w, bad) if want != got]
        assert failed, f"corrupted {field} at level {i} went unnoticed"


def test_a_lost_exception_class_is_caught():
    w = SMOKE["lemma21-n7"]
    report = run_campaign(w, seed=5)
    bad = dataclasses.replace(report, levels=list(report.levels))
    bad.levels[0] = dataclasses.replace(bad.levels[0], exceptions=[])
    assert any(want != got for _, want, got in check_report(w, bad))


def test_canon_checks_pass_and_inputs_follow_the_seed():
    w = SMOKE["canon-8-6"]
    graphs, checks = run_once(w, seed=7)
    assert graphs == w.samples and len(checks) == 2 * w.samples
    assert all(want == got for _, want, got in checks)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("--workload", "canon-8-6", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
