"""The benchmark's three workloads, built from a seed.

A workload is a list of batches of inputs; one pass of a phase (compile,
execute, diff) runs one batch.  The seed only shapes the generated source
and the values in it; mvsl sees nothing but that source.  Every input
carries a reference result that does not come from the VM: a closed form
or a Python model for the hand-written programs, the eager oracle for
generated ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from mvsl import (
    GenConfig,
    RuntimeTrap,
    check_program,
    generate_program,
    interpret_eager,
    parse_source,
    pretty_program,
)

NAMES = ("diff_sweep", "fib_closure", "cow_inout")

# diff_sweep: 128 programs drawn at size budget 400, the compile-heavy
# stress size of ROADMAP item 1.  Per-program compile time varies by about
# 26 % between generator seeds, so fewer programs would let the workload
# seed move the medians.  Each batch also holds 8 programs of what
# `mvsl diff --seed S --trials 128` runs: consecutive seeds at budget 50,
# the default of differential_seed_run.  They cost about 1/17 of a
# budget-400 program each.
SWEEP_BUDGET = 400
CLI_BUDGET = 50
SWEEP_BATCHES = 16
SWEEP_BATCH_SIZE = 8

# fib_closure: fib(16) makes 3193 calls, each copying the closure box.
FIB_N = 16

# cow_inout: 256 leaves, 511 calls; the nocow configs and the oracle copy
# the whole array at every call, so their cost grows with the square.
COW_N = 256


@dataclass
class Input:
    """One program of a workload and the result it must produce."""

    source: str
    # (output, trap) in the form differential_run reports per config.
    expected: tuple[str | None, str | None]
    # diff_sweep regenerates its program in every diff pass, as
    # `mvsl diff --seed` does; hand-written inputs reuse one parse.
    gen: GenConfig | None = None
    program: object = None
    ir: object = None  # output of the latest compile pass
    counts: dict = field(default_factory=dict)  # deterministic counters seen


@dataclass
class Workload:
    name: str
    batches: list[list[Input]]
    # The scaling pass times `base` against `doubled`, the same inputs
    # with the workload's size parameter doubled.
    base: list[Input]
    doubled: list[Input]

    def inputs(self) -> list[Input]:
        return [inp for batch in self.batches for inp in batch]


def fib_source(s0: int, s1: int, n: int, evals: int = 1) -> str:
    call = " + ".join([f"box.fn(box, {n})"] * evals)
    return f"""struct F {{ var fn: (F, Int) -> Int }} in
let fib: (F, Int) -> Int
  = (s: F, n: Int) -> Int {{
    if n < 2 then (if n < 1 then {s0} else {s1})
    else s.fn(s, n - 1) + s.fn(s, n - 2)
  }} in
let box: F = F(fib) in
{call}
"""


def fib_expected(s0: int, s1: int, n: int, evals: int = 1) -> str:
    """fib(0) = s0 and fib(1) = s1 give fib(n) = s0*F(n-1) + s1*F(n)."""
    f_prev, f_n = 1, 0  # F(-1), F(0)
    for _ in range(n):
        f_prev, f_n = f_n, f_prev + f_n
    return str(evals * (s0 * f_prev + s1 * f_n))


def cow_source(values: list[int]) -> str:
    literal = ", ".join(map(str, values))
    return f"""struct U {{}} in
struct R {{ var out: [Int]; var orig: [Int] }} in
struct G {{ var fn: (G, inout [Int], [Int], Int, Int) -> U }} in
let fill: (G, inout [Int], [Int], Int, Int) -> U
  = (g: G, x: inout [Int], v: [Int], lo: Int, hi: Int) -> U {{
    if hi - lo < 2 then (x[lo] = v[lo] * 3 + lo in U())
    else (let mid = (lo + hi) / 2 in
          _ = g.fn(g, &x, v, lo, mid) in
          g.fn(g, &x, v, mid, hi))
  }} in
var a: [Int] = [{literal}] in
let snap: [Int] = a in
let box: G = G(fill) in
_ = box.fn(box, &a, snap, 0, {len(values)}) in
R(a, snap)
"""


def cow_expected(values: list[int]) -> str:
    """A Python model of `fill` and of the final `R(a, snap)`."""
    out = list(values)

    def fill(lo: int, hi: int) -> None:
        if hi - lo < 2:
            out[lo] = values[lo] * 3 + lo
        else:
            mid = (lo + hi) // 2
            fill(lo, mid)
            fill(mid, hi)

    fill(0, len(values))
    return f"R([{', '.join(map(str, out))}], [{', '.join(map(str, values))}])"


def _hand_written(source: str, expected: str) -> Input:
    return Input(source, (expected, None), program=parse_source(source))


def _generated(seed: int, budget: int) -> Input:
    cfg = GenConfig(seed, size_budget=budget)
    program = generate_program(cfg)
    source = pretty_program(program)
    try:
        expected = (interpret_eager(check_program(program)), None)
    except RuntimeTrap as t:
        expected = (None, t.code)
    return Input(source, expected, gen=cfg)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "diff_sweep":
        n = SWEEP_BATCHES * SWEEP_BATCH_SIZE
        stress = [_generated(rng.randrange(2**31), SWEEP_BUDGET) for _ in range(n)]
        first = rng.randrange(2**31)
        cli = [_generated(first + i, CLI_BUDGET) for i in range(n)]
        batches = [
            stress[i : i + SWEEP_BATCH_SIZE] + cli[i : i + SWEEP_BATCH_SIZE]
            for i in range(0, n, SWEEP_BATCH_SIZE)
        ]
        doubled = [_generated(inp.gen.seed, 2 * inp.gen.size_budget) for inp in batches[0]]
        return Workload(name, batches, batches[0], doubled)
    if name == "fib_closure":
        s0, s1 = rng.randint(1, 99), rng.randint(1, 99)
        inp = _hand_written(fib_source(s0, s1, FIB_N), fib_expected(s0, s1, FIB_N))
        doubled = _hand_written(
            fib_source(s0, s1, FIB_N, evals=2), fib_expected(s0, s1, FIB_N, evals=2)
        )
        return Workload(name, [[inp]], [inp], [doubled])
    if name == "cow_inout":
        values = [rng.randrange(1000) for _ in range(2 * COW_N)]
        inp = _hand_written(cow_source(values[:COW_N]), cow_expected(values[:COW_N]))
        doubled = _hand_written(cow_source(values), cow_expected(values))
        return Workload(name, [[inp]], [inp], [doubled])
    raise ValueError(f"unknown workload {name!r}")
