#!/usr/bin/env python3
"""Benchmark of the weyl-dl command line on four workloads.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Every command is `weyl-dl <command> ... --format json`, run from the source
tree in `src/` in a fresh interpreter with one BLAS/OpenMP thread and a fixed
hash seed.  A run sets up the workload's cache state, then repeats passes over
the workload's command list until `--seconds` have gone by, and checks every
output (see report_checks.py).  With `--trace 0` it prints the end-to-end
metrics, each the median over the run's passes; with `--trace 1` each command
runs under traced_cli.py and the run prints the per-layer metrics instead.
The last line of stdout is one JSON object; a copy with per-pass figures is
written to `.perfbench_runs/` at the root of the source tree.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
from report_checks import check_output  # noqa: E402  (sibling module)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

ROSTER = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4),
    ("G", 2), ("F", 4),
)
BEYOND_ROSTER = (("A", 6), ("D", 5))
SMOKE = (("A", 2),)


@dataclass(frozen=True)
class Workload:
    command: str                    # the weyl-dl subcommand: table, dl or verify
    types: tuple[tuple[str, int], ...]
    warm: bool                      # cache filled during set-up, else empty on every pass
    setups: int                     # set-ups per run; setup_s is their median


WORKLOADS = {
    "tables_cold": Workload("table", ROSTER, warm=False, setups=3),
    "dl_warm": Workload("dl", ROSTER, warm=True, setups=2),
    "verify_warm": Workload("verify", ROSTER, warm=True, setups=2),
    "beyond_roster": Workload("table", BEYOND_ROSTER, warm=True, setups=2),
}

# The program's --seed picks the random combinations that split eigenspaces in
# chars; how many attempts that takes, and so the time, varies with it by up to
# 40% (README).  Every command gets the same seed, so runs differ only by the
# machine; the benchmark's own seed sets the order of the commands in a pass.
PROGRAM_SEED = 0

# The console script `weyl-dl` does exactly this.
CLI_MAIN = "import sys\nfrom weyl_dl.cli import main\nsys.exit(main())"

CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Operation:
    """One weyl-dl command of a pass, with the types its report covers."""

    argv: tuple[str, ...]
    types: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Outcome:
    op: Operation
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    trace: dict | None


def operations(w: Workload, smoke: bool) -> list[Operation]:
    types = SMOKE if smoke else w.types
    if w.command == "verify":
        target = ("all",) if len(types) > 1 else (types[0][0], str(types[0][1]))
        return [Operation(("verify",) + target, types)]
    return [Operation((w.command, t, str(n)), ((t, n),)) for t, n in types]


def run_child(argv: list[str], stdout_path: Path) -> tuple[int, float, float, float]:
    """Run one child to completion; (exit code, wall s, user+system s, peak RSS MB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_op(op: Operation, cache: Path, work: Path, traced: bool) -> Outcome:
    args = [*op.argv, "--format", "json", "--cache-dir", str(cache), "--seed", str(PROGRAM_SEED)]
    trace_path = work / "trace.json"
    trace_path.unlink(missing_ok=True)  # never read the previous command's trace
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_path), *args]
    else:
        argv = [sys.executable, "-c", CLI_MAIN, *args]
    stdout_path = work / "stdout"
    rc, wall, cpu, rss = run_child(argv, stdout_path)
    trace = json.loads(trace_path.read_text()) if traced else None
    return Outcome(op, rc, wall, cpu, rss, stdout_path.read_bytes(), trace)


class Checker:
    """Checks each distinct output once; later outputs must repeat it byte for byte."""

    def __init__(self) -> None:
        self.reference: dict[tuple[str, ...], bytes] = {}
        self.problems: list[str] = []

    def check(self, out: Outcome) -> None:
        if out.returncode != 0:
            return
        ref = self.reference.get(out.op.argv)
        if ref is None:
            found = check_output(out.op.argv[0], out.op.types, out.stdout)
            self.problems += found
            if not found:
                self.reference[out.op.argv] = out.stdout
        elif out.stdout != ref:
            self.problems.append(f"{' '.join(out.op.argv)}: output differs from the first run")


def run_pass(ops: list[Operation], cache: Path, rng: random.Random, work: Path,
             traced: bool) -> list[Outcome]:
    """All operations once, in an order drawn from the benchmark's seed."""
    order = list(ops)
    rng.shuffle(order)
    return [run_op(op, cache, work, traced) for op in order]


def set_up(w: Workload, ops: list[Operation], rng: random.Random, work: Path,
           checker: Checker) -> tuple[Path, list[float]]:
    """Run the set-up several times; returns the cache for the passes and the set-up times.

    A warm workload's set-up is a cold pass that fills a fresh cache; its outputs
    are checked and become the reference for every warm pass.  A cold workload
    starts from an empty cache, so its set-up is one start of the command line.
    """
    times = []
    for i in range(w.setups):
        cache = work / f"setup{i}"
        if w.warm:
            outcomes = run_pass(ops, cache, rng, work, traced=False)
            for out in outcomes:
                if out.returncode != 0:
                    raise RuntimeError(f"set-up command {out.op.argv} exited {out.returncode}")
                checker.check(out)
            times.append(sum(out.wall_s for out in outcomes))
        else:
            rc, wall, _, _ = run_child([sys.executable, "-c", CLI_MAIN, "--help"], work / "stdout")
            if rc != 0:
                raise RuntimeError(f"weyl-dl --help exited {rc}")
            times.append(wall)
    return cache, times


def layer_metrics(names: list[str], outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer values of one pass: traces of its commands summed, by metric name."""
    calls: Counter[str] = Counter()
    self_s: Counter[str] = Counter()
    counters: Counter[str] = Counter()
    for out in outcomes:
        calls.update(out.trace["calls"])
        self_s.update(out.trace["self_s"])
        counters.update(out.trace["counters"])
    values = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls[span]
        elif field == "self_s":
            values[name] = self_s[span]
        elif name == "chars.split.vectors_per_nullspace":
            nullspaces = calls["ratlinalg.nullspace"]
            values[name] = counters["chars.split.vectors"] / nullspaces if nullspaces else 0.0
        else:
            values[name] = counters[name]
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload on A2 only, one pass: a check that runs in seconds")
    args = ap.parse_args()
    # A SIGTERM becomes SystemExit, so run_child kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "weyl_dl" / "cli.py").is_file():
        print(f"error: no weyl-dl source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    ops = operations(w, args.smoke)
    rng = random.Random(args.seed)
    traced = bool(args.trace)

    work = RUNS / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker()
    try:
        cache, setup_times = set_up(w, ops, rng, work, checker)
        passes: list[list[Outcome]] = []
        deadline = time.perf_counter() + args.seconds
        while not passes or (time.perf_counter() < deadline and not args.smoke):
            if not w.warm:
                cache = work / f"pass{len(passes)}"
            passes.append(run_pass(ops, cache, rng, work, traced))
            for out in passes[-1]:
                checker.check(out)
            if not w.warm:
                shutil.rmtree(cache, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wall = [sum(out.wall_s for out in p) for p in passes]
    if traced:
        names = [m["name"] for m in spec["per_layer"]]
        per_pass = [layer_metrics(names, p) for p in passes]
        metrics = {m["name"]: {"value": statistics.median(v[m["name"]] for v in per_pass),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        measured = {
            "wall_s": wall,
            "cpu_s": [sum(out.cpu_s for out in p) for p in passes],
            "peak_rss_mb": [max(out.rss_mb for out in p) for p in passes],
            "setup_s": setup_times,
        }
        metrics = {m["name"]: {"value": statistics.median(measured[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not checker.problems,
        "attempted": sum(len(p) for p in passes),
        "failed": sum(out.returncode != 0 for p in passes for out in p),
        "metrics": metrics,
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "passes": len(passes), "pass_wall_s": wall,
              "setup_s": setup_times,
              "commands": [[[" ".join(out.op.argv), out.wall_s, out.cpu_s] for out in p]
                           for p in passes],
              **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' * args.smoke}.json"
    (RUNS / name).write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
