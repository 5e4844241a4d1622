#!/usr/bin/env python3
"""Run the full verification roster with per-type timing.

Same checks as `weyl-dl verify all`, but reported as an experiment log:
one line per type with group order, class count, check tally, and wall time.
"""
import argparse
import sys
import time
from pathlib import Path

from weyl_dl.cli import (
    Config,
    ROSTER,
    build_group,
    global_parity_checks,
    load_or_compute_table,
    run_type_checks,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cache-dir", type=Path, default=Path("~/.cache/weyl-dl"))
    args = ap.parse_args()

    cfg = Config(cache_dir=args.cache_dir)
    print(f"{'type':<6} {'|W|':>6} {'classes':>8} {'checks':>8} {'time':>8}")
    failures = 0
    t_total = time.perf_counter()
    for type_label, rank in ROSTER:
        t0 = time.perf_counter()
        W, classes = build_group(cfg, type_label, rank)
        table, cached = load_or_compute_table(cfg, W, classes)
        checks = run_type_checks(cfg, W, classes, table)
        dt = time.perf_counter() - t0
        bad = [c for c in checks if not c.passed]
        failures += len(bad)
        tally = f"{len(checks) - len(bad)}/{len(checks)}"
        note = " (cached table)" if cached else ""
        print(f"{W.cartan.label:<6} {W.order:>6} {classes.n_classes:>8} {tally:>8} {dt:>7.2f}s{note}")
        for c in bad:
            print(f"    FAIL {c.name}: {c.detail}")
    for c in global_parity_checks():
        if not c.passed:
            failures += 1
            print(f"FAIL {c.name}: {c.detail}")
    print(f"total: {time.perf_counter() - t_total:.2f}s, {failures} failing checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
