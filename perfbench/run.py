"""Benchmark for bergeham: named workloads through the public API, outputs checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lemma21-n7 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program untouched:
``setup_s`` is the median over fresh interpreters of importing the package
and building the workload's edge universe and decider tables; the workload
then repeats while another repetition fits in ``--seconds`` and ``wall_s``
is the median repetition.  Calibration slices run between units of work,
and every time is reported at a fixed reference speed of the machine (see
``Reference`` and README.md); the times as measured are printed too.
``--trace 1`` runs the workload once untraced and twice with the span
wrappers of ``spans.py`` installed, and reports the per-layer metrics of
the first traced repetition; the exact counts of both traced repetitions
must agree.  ``--smoke`` shrinks every workload to a tiny size.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count output checks, so ``fail_frac`` is ``failed / attempted``.
A record of each run, with its provenance, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("lemma21-n7", "edges-6-3", "spectral-6-4", "canon-8-6")
SETUP_REPS = 7

# Timed metrics are rescaled to a fixed reference speed of the machine (see
# README.md).  A calibration slice is CAL_LOOPS turns of the calibrate()
# loop and takes CAL_REF_S seconds at the reference speed, the fast state
# of a 2-vCPU Xeon cloud host.  When the machine slows down, the program's
# time grows as the ALPHA-th power of the slice time (fitted on decider,
# spectral and canonical loops interleaved with slices: 1.15 to 1.35).
CAL_LOOPS = 40_000
CAL_REF_S = 0.005
ALPHA = 1.25
DUTY = 0.1            # share of the work time spent on slices between units
SETUP_SLICES = 10     # slices before and after each set-up interpreter's timed part


def calibrate(loops: int = 1_000_000) -> float:
    """Time of a fixed pure-Python loop: the speed the machine gives right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t0


def at_reference(seconds: float, mean_slice: float) -> float:
    """``seconds`` measured while slices took ``mean_slice``, at the reference speed."""
    return seconds * (CAL_REF_S / mean_slice) ** ALPHA


# Runs in a fresh interpreter: what a new process pays before its first
# graph, with calibration slices on either side of the timed part.
SETUP_CODE = "import sys, time\n" + inspect.getsource(calibrate) + """
cal = [calibrate({loops}) for _ in range({slices})]
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import bergeham.cli
from bergeham import BergeDecider, universe_masks
BergeDecider({n}, universe_masks({n}, {r}))
t = time.perf_counter() - t0
cal += [calibrate({loops}) for _ in range({slices})]
print(t, sum(cal) / len(cal))
"""


class Reference:
    """Calibration slices interleaved with timed work.

    ``pause()`` runs between units of the workload (chunks, calls) and
    keeps the time spent on slices at about ``DUTY`` of the time worked,
    so the slices sample the machine's speed at the same moments as the
    work, in proportion to it.  ``rescale()`` turns a unit timed since
    ``start()`` into work seconds (pauses left out) and the same at the
    reference speed.
    """

    def __init__(self):
        self.start()

    def start(self) -> None:
        self.slices: list[float] = []
        self.paused = 0.0
        self._owed = 0.0
        self._mark = time.perf_counter()

    def pause(self) -> None:
        t0 = time.perf_counter()
        self._owed += DUTY * (t0 - self._mark)
        while self._owed > 0 or not self.slices:
            self.slices.append(calibrate(CAL_LOOPS))
            self._owed -= self.slices[-1]
        self._mark = time.perf_counter()
        self.paused += self._mark - t0

    def rescale(self, wall: float) -> tuple[float, float]:
        """(work seconds, work seconds at the reference speed) of ``wall`` timed since ``start()``."""
        work = wall - self.paused
        self.pause()
        return work, at_reference(work, statistics.fmean(self.slices))


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_units(group: str) -> dict[str, str]:
    """Metric name -> unit for one group ("end_to_end" or "per_layer") of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[group]}


def setup_seconds(w, reps: int) -> tuple[list[float], list[float]]:
    """Set-up times of ``reps`` fresh interpreters, as measured and at the reference speed."""
    code = SETUP_CODE.format(src=str(SRC), n=w.n, r=w.r, loops=CAL_LOOPS, slices=SETUP_SLICES)
    times, scaled = [], []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=120)
        t, mean_slice = map(float, out.stdout.split())
        times.append(t)
        scaled.append(at_reference(t, mean_slice))
    return times, scaled


def timed_run(w, seed: int, seconds: float, smoke: bool):
    """Repeat the workload for ``seconds``; every repetition is checked.

    A repetition starts only if the previous one would still fit, so the run
    ends near ``seconds``; there is always at least one.
    """
    from workloads import run_once

    setup, setup_ref = setup_seconds(w, 1 if smoke else SETUP_REPS)
    ref = Reference()
    walls, scaled, graphs, checks = [], [], 0, []
    start = time.perf_counter()
    while True:
        ref.start()
        t0 = time.perf_counter()
        g, c = run_once(w, seed, batch=len(walls), pause=ref.pause)
        work, at_ref = ref.rescale(time.perf_counter() - t0)
        walls.append(work)
        scaled.append(at_ref)
        graphs += g
        checks += c
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(scaled),
        "graphs_per_s": graphs / sum(scaled),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = {
        "wall_s": statistics.median(walls),
        "graphs_per_s": graphs / sum(walls),
        "setup_s": statistics.median(setup),
    }
    return metrics, checks, {"measured": measured, "walls_s": walls, "walls_at_ref_s": scaled,
                             "setup_times_s": setup, "setup_times_at_ref_s": setup_ref}


def traced_run(w, seed: int, name: str):
    from spans import Tracer
    from workloads import run_once

    t0 = time.perf_counter()
    _, checks = run_once(w, seed)
    untraced = time.perf_counter() - t0
    tracers, walls = [], []
    for _ in range(2):
        tracer = Tracer()
        try:
            tracer.install()
            t0 = time.perf_counter()
            _, c = run_once(w, seed)
            walls.append(time.perf_counter() - t0)
        finally:
            tracer.remove()
        checks += c
        tracers.append(tracer)
    first, second = (t.exact_counts() for t in tracers)
    checks.append(("trace.exact_counts_repeat", first, second))
    metrics = tracers[0].layer_metrics(walls[0])
    metrics["trace.overhead_frac"] = walls[0] / untraced - 1
    tracers[0].save(OUT / f"{name}.spans.npz")
    extra = {"untraced_wall_s": untraced, "traced_walls_s": walls,
             "exact_counts": first, "unwrapped": tracers[0].missing}
    return metrics, checks, extra


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy
    import bergeham

    if Path(bergeham.__file__).resolve().parent != SRC / "bergeham":
        print(f"bergeham imported from {bergeham.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import SMOKE, WORKLOADS

    w = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    OUT.mkdir(exist_ok=True)
    calibration = [calibrate()]
    if args.trace:
        metrics, checks, extra = traced_run(w, args.seed, args.workload)
    else:
        metrics, checks, extra = timed_run(w, args.seed, args.seconds, args.smoke)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    calibration.append(calibrate())
    failed = [(name, want, got) for name, want, got in checks if want != got]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "jobs": 1,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "bergeham": bergeham.__version__, "git_revision": git_revision(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "calibration_s": calibration,
    }
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"provenance": provenance, "failed_checks": [list(map(str, f)) for f in failed],
              **extra, **result}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1, default=str)

    print("provenance " + json.dumps(provenance))
    for name, want, got in failed:
        print(f"FAILED CHECK {name}: expected {want}, found {got}")
    print(f"fail_frac {len(failed) / len(checks)} ratio ({len(failed)} of {len(checks)} checks)")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']} {m['unit']}")
    for k, v in extra.get("measured", {}).items():
        print(f"measured {k} {v} {units[k]} (at the machine's speed during the run)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        res = json.loads(out.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        print(f"{name}: correct={res['correct']} fail_frac={res['failed'] / res['attempted']} ratio")
        for k, m in res["metrics"].items():
            print(f"  {k} {m['value']} {m['unit']}")
            merged["metrics"][f"{name}.{k}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = p.parse_args(argv)
    if not (SRC / "bergeham" / "__init__.py").is_file():
        print(f"no bergeham sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
