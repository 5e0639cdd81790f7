"""Record or check the benchmark's deterministic counters.

    python3 perfbench/counters.py          # check counters.json
    python3 perfbench/counters.py --write  # record it again

For each workload and each of SEEDS this builds the workload, runs every
program once through the compile, diff and debug passes, untimed, and
sums the counters the traced run reports: the seven VM counters of each
config, tokens, AST nodes, IR instructions, copies, elided copies and
debug-audit failures.  They do not depend on the machine, so the same
code must give the same numbers on every run.  Checking exits with
status 1 and names each counter that differs from counters.json, or any
program that failed.  A traced run of run.py makes the same comparison
for its own workload and seed and fails on a difference.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RECORD = Path(__file__).resolve().parent / "counters.json"
SEEDS = range(10)


def diff_recorded(workload: str, seed: int, counts: dict[str, int]) -> list[str] | None:
    """One line per counter that differs from counters.json, or None if
    this workload and seed are not recorded there."""
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    entry = recorded.get(workload, {}).get(str(seed))
    if entry is None:
        return None
    return [f"{workload} seed {seed}: {key} recorded {entry.get(key)}, now {counts.get(key)}"
            for key in sorted(entry.keys() | counts.keys())
            if entry.get(key) != counts.get(key)]


def collect(name: str, seed: int) -> dict[str, int]:
    import workloads
    from bench import Bench

    bench = Bench(workloads.build(name, seed))
    bench.complete_counts()
    if bench.failures:
        raise SystemExit("\n".join(bench.failures))
    return dict(sorted(bench.count_totals().items()))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true", help="record counters.json again")
    args = p.parse_args(argv)
    from run import import_mvsl

    if not import_mvsl():
        return 2
    import workloads

    measured = {
        name: {str(seed): collect(name, seed) for seed in SEEDS} for name in workloads.NAMES
    }
    if args.write:
        RECORD.write_text(json.dumps(measured, indent=1) + "\n", encoding="utf-8")
        return 0
    status = 0
    for name, seeds in measured.items():
        for seed, counts in seeds.items():
            diffs = diff_recorded(name, int(seed), counts)
            if diffs is None:
                diffs = [f"{name} seed {seed}: not recorded"]
            for line in diffs:
                print(line)
                status = 1
    print("counters identical to counters.json" if status == 0 else "counters differ")
    return status


if __name__ == "__main__":
    sys.exit(main())
