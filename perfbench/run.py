"""Benchmark for mvsl: compile, execute and differential-test cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository; it imports mvsl from `src/`.
Workloads: diff_sweep, fib_closure, cow_inout (see workloads.py and
README.md).  With --trace 0 the last line of stdout is a JSON object
holding the end-to-end metrics of BENCHMARK.json; with --trace 1 it holds
the per-layer metrics.  The lines before it print every figure by name
with its unit.  Any failed program, and with --trace 1 any counter that
differs from counters.json for this workload and seed, makes the run exit
with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# setup_s: `import mvsl` in a fresh interpreter, which every CLI
# invocation pays.  Timed inside the child so interpreter start-up and
# process creation stay out of the figure, and calibrated there too,
# right after the import (median of three), so each child's time is
# scaled by its own machine speed.
SETUP_RUNS = 21
_SETUP_CHILD = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import mvsl; t = time.perf_counter() - t; "
    "from calibration import calibrate; "
    "print(t, sorted(calibrate() for _ in range(3))[1])"
)


def measure_setup() -> tuple[list[float], list[float]]:
    """Scaled and raw import times of SETUP_RUNS children."""
    from calibration import CAL_REF

    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, calibration = map(float, done.stdout.split())
        scaled.append(seconds * CAL_REF / calibration)
        raw.append(seconds)
    return scaled, raw


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it,
    by nearest rank, or None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def timing_line(name: str, value: float, samples: list[float], raw: float) -> str:
    t = tail(samples)
    tail_text = f"p{t[0]} {t[1]:.6f} s" if t else "no tail (n < 11)"
    return (f"{name:<12} median {value:.6f} s  {tail_text}  n={len(samples)}"
            f"  (unscaled {raw:.6f} s)")


def parse_args(argv):
    p = argparse.ArgumentParser(description="mvsl benchmark")
    p.add_argument("--workload", required=True, choices=("diff_sweep", "fib_closure", "cow_inout"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_mvsl() -> bool:
    """Import mvsl from this checkout's src/; print why not and return
    False when it is missing or another copy would be imported."""
    if not (SRC / "mvsl" / "__init__.py").is_file():
        print(f"perfbench: no mvsl package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import mvsl

    if Path(mvsl.__file__).resolve().parent != (SRC / "mvsl").resolve():
        print(f"perfbench: imported mvsl from {mvsl.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_mvsl():
        return 2
    import workloads
    from bench import PHASES, Bench
    from counters import diff_recorded

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup, raw_setup = measure_setup()
    bench = Bench(workloads.build(args.workload, args.seed))
    bench.run(args.seconds, traced=bool(args.trace))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(bench.wl.inputs())} programs in {len(bench.wl.batches)} batches; "
          f"times are for a pass over all of them, scaled to the reference speed")
    values = {"setup_s": median(setup)}
    print(timing_line("setup_s", values["setup_s"], setup, median(raw_setup)))
    for phase in PHASES:
        values[f"{phase}_s"], samples = bench.whole_pass(bench.times(phase))
        raw = bench.whole_pass(bench.times(phase, scaled=False))[0]
        print(timing_line(f"{phase}_s", values[f"{phase}_s"], samples, raw))
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'peak_rss_mb':<12} {values['peak_rss_mb']:.1f} MB")

    section = "end_to_end"
    if args.trace:
        section = "per_layer"
        bench.complete_counts()
        counts = bench.count_totals()
        values = bench.layer_metrics(counts)
        # A change that alters counters on purpose records them again
        # with `counters.py --write`, which shows in its diff.
        diffs = diff_recorded(args.workload, args.seed, counts)
        if diffs is None:
            print(f"counters: seed {args.seed} of {args.workload} is not in counters.json")
        elif not diffs:
            print("counters: identical to counters.json")
        bench.failures += [f"counters.json: {line}" for line in diffs or ()]
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        bench.tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")

    failed = len(bench.failures)
    print(f"{'fail_frac':<12} {failed / bench.attempted:.6f} ratio  "
          f"({failed} failed of {bench.attempted} attempted)")
    for line in bench.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    metrics = {}
    for m in spec[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']:<32} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.exit(main())
