"""Fixed-work benchmark for mutkill.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Run from the root of a checkout; the program is imported from `src/`.

A run repeats whole rounds until `--seconds` have passed; the last round is
finished, so every run attempts whole rounds of the same operations.

With `--trace 0` a round runs, for each of the workload's programs and each
in its own process, `mutkill tce` SETUP_PASSES times, then `mutkill gen` and
`mutkill matrix`, with `calibrate.py` timed three times per round.  Each time
metric is, summed over the programs, the program's fastest reading in the run
(setup: over all its `tce` passes), scaled to the reference machine speed by
calibrate.py's fastest reading.

With `--trace 1` a round runs `cli.run_pipeline` over the workload twice, in
two fresh processes: once plain, once with every layer wrapped (tracing.py).
The per-layer metrics come from the traced process; `trace.overhead_s` is
the traced total minus the plain total.

Every run checks the outputs (checks.py) and the fixed-work guards: no
wall-clock budget fired, outputs are byte-identical across the rounds of the
run, and (traced) no solver query came back unknown.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import workloads as W

SETUP_PASSES = 2
OUT = os.path.join(W.BENCH_DIR, "out")
SRC = os.path.join(W.ROOT, "src")
COMPARED = ("tests.txt", "matrix.csv")  # byte-identical across rounds

END_TO_END = {"setup_s": "s", "gen_s": "s", "matrix_s": "s",
              "mutants_killed": "count", "peak_rss_mb": "MB"}
TIMED = ("setup_s", "gen_s", "matrix_s")
CALIBRATION = os.path.join(W.BENCH_DIR, "calibrate.py")
# calibrate.py's fastest reading on the reference machine (2-core Xeon VM,
# Python 3.11): times are scaled to the speed at which it reads this
CALIBRATION_REFERENCE_S = 0.115


class Run:
    """Operation counts, guard and check problems of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.failed_programs: set = set()
        self.first_outputs: Dict[str, bytes] = {}

    def op(self, program: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_programs.add(program)

    def same_outputs(self, label: str, out_dir: str) -> None:
        """Guard: each compared file is byte-identical to its first copy."""
        for name in COMPARED:
            path = os.path.join(out_dir, name)
            if not os.path.exists(path):
                continue
            with open(path, "rb") as f:
                data = f.read()
            key = f"{label}/{name}"
            first = self.first_outputs.setdefault(key, data)
            if data != first:
                self.problems.append(f"{key} differs between rounds of one run")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: List[str], log: str) -> tuple:
    """Run a child to completion; return (wall seconds, exit code, max RSS in
    KiB)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                env=_env(), cwd=W.ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


def mutkill(stage: str, program: W.Program, cfg: str, out_dir: str,
            seeds: Optional[str], tests: bool = False) -> List[str]:
    argv = [sys.executable, "-m", "mutkill.cli", stage, "--program", program.path,
            "--config", cfg, "--out", out_dir]
    if seeds:
        argv += ["--seeds", seeds]
    if tests:
        argv += ["--tests", os.path.join(out_dir, "tests.txt")]
    return argv


def _budget_guard(run: Run, label: str, out_dir: str) -> None:
    path = os.path.join(out_dir, "stats.txt")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as f:
        stats = dict(line.split("=", 1) for line in f.read().splitlines() if "=" in line)
    if float(stats["wall_clock"]) >= W.BUDGET_SECONDS:
        run.problems.append(f"{label}: gen reached BUDGET_SECONDS={W.BUDGET_SECONDS}")


def _check(run: Run, wl: W.Workload, out_root: str, seeds: Optional[str]) -> None:
    import checks
    for p in wl.programs:
        if p.name in run.failed_programs:
            continue
        path = W.seeds_path(seeds, p)
        vals = []
        if path:
            with open(path, encoding="utf-8") as f:
                vals = W.read_valuations(f.read())
        run.problems += checks.check_program(wl, p, os.path.join(out_root, p.name), vals)


def _killed(out_root: str, wl: W.Workload) -> int:
    import checks
    total = 0
    for p in wl.programs:
        path = os.path.join(out_root, p.name, "matrix.csv")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                total += len(checks.parse_matrix(f.read()).killed())
    return total


def run_cli(wl: W.Workload, seconds: float, cfg: str, seeds: Optional[str],
            out: str) -> tuple:
    run = Run()
    log = os.path.join(out, "stderr.log")
    times = {p.name: {k: [] for k in TIMED} for p in wl.programs}
    rss = 0

    def stage(metric, argv, program):
        nonlocal rss
        s, rc, kb = spawn(argv, log)
        run.op(program, rc == 0)
        rss = max(rss, kb)
        times[program][metric].append(s)
        return rc == 0

    calibration: List[float] = []

    def calibrate():
        s, rc, _ = spawn([sys.executable, CALIBRATION], log)
        if rc == 0:
            calibration.append(s)

    start = time.perf_counter()
    while True:
        calibrate()
        for _ in range(SETUP_PASSES):
            for p in wl.programs:
                stage("setup_s", mutkill("tce", p, cfg, os.path.join(out, p.name), None), p.name)
        calibrate()
        for p in wl.programs:
            pdir = os.path.join(out, p.name)
            path = W.seeds_path(seeds, p)
            if not stage("gen_s", mutkill("gen", p, cfg, pdir, path), p.name):
                run.op(p.name, False)  # matrix needs the tests gen writes
                continue
            stage("matrix_s", mutkill("matrix", p, cfg, pdir, path, tests=True), p.name)
            run.same_outputs(p.name, pdir)
            _budget_guard(run, p.name, pdir)
        calibrate()
        if time.perf_counter() - start >= seconds:
            break
    _check(run, wl, out, seeds)
    if not calibration:
        run.problems.append("calibrate.py never completed")
        calibration.append(CALIBRATION_REFERENCE_S)
    # Neighbours on a shared machine only add time to the same fixed work, so
    # each program's fastest reading in the run is the least disturbed one.
    # Slower phases of the machine that last the whole run are taken out by
    # scaling with calibrate.py's fastest reading in the same run.
    scale = CALIBRATION_REFERENCE_S / min(calibration)
    raw = {k: sum(min(t[k], default=0.0) for t in times.values()) for k in TIMED}
    metrics = {k: v * scale for k, v in raw.items()}
    metrics["mutants_killed"] = _killed(out, wl)
    metrics["peak_rss_mb"] = rss / 1024
    detail = {"rounds": len(times[wl.programs[0].name]["gen_s"]), "raw_s": raw,
              "calibration_s": calibration, "scale": scale, "times": times}
    return run, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, detail


def run_traced(wl: W.Workload, seconds: float, cfg: str, seeds: Optional[str],
               out: str) -> tuple:
    run = Run()
    log = os.path.join(out, "stderr.log")
    plain_totals, traced = [], []
    start = time.perf_counter()
    while True:
        for mode in ("plain", "traced"):
            root = os.path.join(out, mode)
            job = {
                "src": SRC, "config": cfg,
                "result": os.path.join(out, f"{mode}.json"),
                "spans": os.path.join(out, "spans.json"),
                "programs": [{"name": p.name, "path": p.path,
                              "out": os.path.join(root, p.name),
                              "seeds": W.seeds_path(seeds, p),
                              "n_seeds": wl.seeds_per_program} for p in wl.programs],
            }
            job_path = os.path.join(out, f"{mode}.job.json")
            with open(job_path, "w", encoding="utf-8") as f:
                json.dump(job, f)
            argv = [sys.executable, os.path.join(W.BENCH_DIR, "tracing.py"), job_path]
            _, rc, _ = spawn(argv + (["--trace"] if mode == "traced" else []), log)
            for p in wl.programs:
                run.op(p.name, rc == 0)
            if rc != 0:
                continue
            with open(job["result"], encoding="utf-8") as f:
                result = json.load(f)
            if mode == "plain":
                plain_totals.append(result["total_s"])
            else:
                traced.append(result)
            for p in wl.programs:
                # traced and plain runs must agree byte for byte, every round
                run.same_outputs(p.name, os.path.join(root, p.name))
        if time.perf_counter() - start >= seconds:
            break
    if not traced or not plain_totals:
        run.problems.append("no traced or no plain run completed")
        return run, {}, {}
    _check(run, wl, os.path.join(out, "traced"), seeds)
    median_total = statistics.median(r["total_s"] for r in traced)
    pick = min(traced, key=lambda r: abs(r["total_s"] - median_total))
    metrics = dict(pick["metrics"])
    metrics["trace.overhead_s"] = {
        "value": median_total - statistics.median(plain_totals), "unit": "s"}
    unknown = metrics["solver.unknown"]["value"]
    if unknown:  # the 5 s per-query timeout would read as UNSAT
        run.problems.append(f"solver.unknown = {unknown} in the traced run")
    if pick["wall_clock_max"] >= W.BUDGET_SECONDS:
        run.problems.append(f"gen reached BUDGET_SECONDS={W.BUDGET_SECONDS}")
    if pick["absent"]:
        print(f"absent from the program: {', '.join(pick['absent'])}", file=sys.stderr)
    detail = {"rounds": len(traced), "plain_total_s": plain_totals,
              "traced_total_s": [r["total_s"] for r in traced], "spans": pick["spans"]}
    return run, metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = W.WORKLOADS[name]
    out = os.path.join(OUT, name + ("-trace" if trace else ""))
    shutil.rmtree(out, ignore_errors=True)
    cfg, seeds = W.write_inputs(wl, seed, out)
    run, metrics, detail = (run_traced if trace else run_cli)(wl, seconds, cfg, seeds, out)
    with open(os.path.join(out, "detail.json"), "w", encoding="utf-8") as f:
        json.dump({"workload": name, "seed": seed, "metrics": metrics,
                   "problems": run.problems, **detail}, f, indent=1)
    for p in run.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mutkill", "cli.py")):
        print(f"error: no mutkill sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import compileall
    compileall.compile_dir(os.path.join(SRC, "mutkill"), quiet=1)
    names = sorted(W.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in results[name]["metrics"].items():
            print(f"{name} {metric} = {m['value']} {m['unit']}")
        print(f"{name} correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
