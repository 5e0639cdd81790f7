"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time

import pytest

from mvsl import (
    GenConfig,
    RuntimeTrap,
    check_program,
    differential_run,
    differential_seed_run,
    execute,
    generate_program,
    parse_source,
    serialize_array_layout,
)
from mvsl.cli import main as cli_main
from mvsl.diagnostics import TypeCheckError
from mvsl.ir import apply_move_optimization, lower_program

from conftest import corpus_sources, lower_source, run_source

PAIR = "struct Pair { var fs: Int; var sn: Int } in "

SWAP_LISTING = (
    PAIR + "struct U {} in "
    "let swap: (inout Int, inout Int) -> U"
    " = (a: inout Int, b: inout Int) -> U {"
    " let tmp = a in a = b in b = tmp in U() } in "
    "var p = Pair(4, 2) in _ = swap(&p.fs, &p.sn) in p"
)


def _verdict(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


def test_criterion_1_paper_corpus_fidelity():
    def body():
        copy_src = PAIR + "var p: Pair = Pair(4, 2) in var q: Pair = p in q.sn = 8 in "
        assert run_source(copy_src + "p")[0] == "Pair(4, 2)"
        assert run_source(copy_src + "q")[0] == "Pair(4, 8)"
        assert run_source(SWAP_LISTING)[0] == "Pair(2, 4)"
        for src in (
            PAIR + "let p: Pair = Pair(4, 2) in p.sn = 8 in p",
            PAIR + "let a: [Pair] = [Pair(4,2), Pair(5,3)] in a[0].sn = 8 in a",
        ):
            with pytest.raises(TypeCheckError) as e:
                check_program(parse_source(src))
            assert e.value.code == "ImmutableTarget"
        with pytest.raises(TypeCheckError) as e:
            check_program(parse_source("struct A { var b: B } in struct B { var a: A } in 0"))
        assert e.value.code == "RecursiveStruct"

    _verdict(1, "paper listings reproduce exactly", body)


def test_criterion_2_layout_reproduction():
    def body():
        assert serialize_array_layout([42, 1337], 2, "little") == (
            1,
            2,
            4,
            bytes([42, 0, 57, 5]),
        )
        rng = random.Random(99)
        for _ in range(100):
            size = rng.choice([1, 2, 4, 8])
            lo, hi = -(1 << (8 * size - 1)), (1 << (8 * size - 1)) - 1
            values = [rng.randint(lo, hi) for _ in range(rng.randint(0, 8))]
            r, n, k, payload = serialize_array_layout(values, size, "little")
            assert r == 1 and n == len(values)
            assert k == n * size
            hand = bytearray()
            for v in values:
                u = v if v >= 0 else v + (1 << (8 * size))
                for i in range(size):
                    hand.append((u >> (8 * i)) & 0xFF)
            assert payload == bytes(hand)

    _verdict(2, "array block layout matches the by-hand byte oracle", body)


def test_criterion_3_move_elision():
    def body():
        # f owns its parameter; a load between x's array literal and its
        # last use, and between f's result and y's, keeps those two reads
        # Moves rather than producing the values in place.
        src = (
            "let f: ([Int]) -> [Int] = (a: [Int]) -> [Int] { a } in let x: [Int] = [1, 2] in "
            "let k: Int = x[1] in let y: [Int] = f(x) in let n: Int = y[0] in "
            "let z: [Int] = y in z[1] + n + k"
        )
        out, stats = run_source(src, cow=True, move_opt=True)
        assert out == "5"
        assert stats.deep_copies == 0
        assert stats.moves >= 2
        out, naive = run_source(src, cow=False, move_opt=False)
        assert out == "5"
        assert naive.deep_copies >= 2

    _verdict(3, "last-use copies elide to moves with zero deep copies", body)


def test_criterion_4_cow_behavior():
    def body():
        def program(cond):
            # reading `a` at the end keeps the b = a copy a real copy;
            # otherwise move elision makes the storage unshared
            return (
                "struct U {} in "
                "var a: [Int] = [2, 5] in "
                "var b: [Int] = a in "
                "let mutate: (inout [Int]) -> U = (x: inout [Int]) -> U { x[0] = 10 in U() } in "
                f"var cond: Int = {cond} in "
                "_ = if cond then mutate(&b) else U() in "
                "if cond then b[0] else a[0]"
            )

        taken, st_taken = run_source(program(1), cow=True)
        skipped, st_skipped = run_source(program(0), cow=True)
        assert st_taken.cow_copies == 1
        assert st_skipped.cow_copies == 0 and st_skipped.retains == 1
        eager_taken, st_et = run_source(program(1), cow=False)
        eager_skipped, st_es = run_source(program(0), cow=False)
        assert st_et.deep_copies >= 1 and st_es.deep_copies >= 1
        assert (eager_taken, eager_skipped) == (taken, skipped) == ("10", "2")

    _verdict(4, "copies stay lazy until the conditional mutation runs", body)


def _diff_reports():
    reports = []
    for name, source in corpus_sources():
        try:
            program = parse_source(source)
            check_program(program)
        except Exception:
            continue  # diagnostic corpus entries are covered by criterion 1
        reports.append((name, differential_run(program)))
    for seed in range(1000):
        reports.append((f"seed {seed}", differential_seed_run(seed)))
    return reports


def test_criterion_5_and_6_differential_and_leaks():
    def body():
        start = time.monotonic()
        reports = _diff_reports()
        elapsed = time.monotonic() - start
        fails = [name for name, r in reports if r["status"] != "PASS"]
        assert not fails, fails
        assert elapsed < 120, f"differential sweep took {elapsed:.1f}s"
        body.elapsed = elapsed
        body.reports = reports

    _verdict(5, "oracle and all four VM configurations agree on corpus + 1000 seeds", body)

    def leaks():
        checked = 0
        for name, r in body.reports:
            for row in r["results"]:
                if row["stats"] is None or row["trap"] is not None:
                    continue
                s = row["stats"]
                assert s["allocs"] == s["frees"], (name, row["config"])
                assert s["retains"] == s["releases"], (name, row["config"])
                checked += 1
        assert checked > 3000

    _verdict(6, "every non-trapping run frees every block and balances retains", leaks)


def test_criterion_7_exclusivity():
    def body():
        with pytest.raises(TypeCheckError) as e:
            check_program(
                parse_source(
                    PAIR + "struct U {} in "
                    "let swap: (inout Int, inout Int) -> U = (a: inout Int, b: inout Int) -> U"
                    " { let t = a in a = b in b = t in U() } in "
                    "var p = Pair(4, 2) in _ = swap(&p.fs, &p.fs) in p"
                )
            )
        assert e.value.code == "OverlappingInout"

        def indices(i, j):
            return (
                "struct U {} in "
                "let swap: (inout Int, inout Int) -> U = (a: inout Int, b: inout Int) -> U"
                " { let t = a in a = b in b = t in U() } in "
                f"var a: [Int] = [1, 2] in var i: Int = {i} in var j: Int = {j} in "
                "_ = swap(&a[i], &a[j]) in a"
            )

        with pytest.raises(RuntimeTrap) as t:
            run_source(indices(0, 0))
        assert t.value.code == "OverlapViolation"
        assert run_source(indices(0, 1))[0] == "[2, 1]"

    _verdict(7, "overlapping inout arguments stop statically or trap at runtime", body)


def test_criterion_7_trap_exit_code(tmp_path, capsys):
    def body():
        f = tmp_path / "overlap.mvs"
        f.write_text(
            "struct U {} in "
            "let swap: (inout Int, inout Int) -> U = (a: inout Int, b: inout Int) -> U"
            " { let t = a in a = b in b = t in U() } in "
            "var a: [Int] = [1, 2] in var i: Int = 0 in var j: Int = 0 in "
            "_ = swap(&a[i], &a[j]) in a"
        )
        code = cli_main(["run", str(f)])
        captured = capsys.readouterr()
        assert code == 2
        assert "trap[OverlapViolation]" in captured.err

    _verdict(7, "the runtime overlap trap exits with code 2", body)


def _copy_mutate_pair(seed):
    rng = random.Random(seed)
    kind = rng.choice(["ints", "pair", "nested", "pairs"])
    if kind == "ints":
        n = rng.randint(2, 5)
        lit = "[" + ", ".join(str(rng.randint(0, 99)) for _ in range(n)) + "]"
        decl, ty = "", "[Int]"
        muts = [f"q[{rng.randrange(n)}] = {rng.randint(0, 99)}" for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            muts.append("q = [" + ", ".join(str(rng.randint(0, 9)) for _ in range(n)) + "]")
    elif kind == "pair":
        decl, ty = PAIR, "Pair"
        lit = f"Pair({rng.randint(0, 99)}, {rng.randint(0, 99)})"
        muts = [
            f"q.{rng.choice(['fs', 'sn'])} = {rng.randint(0, 99)}"
            for _ in range(rng.randint(1, 4))
        ]
    elif kind == "nested":
        rows, width = rng.randint(2, 3), rng.randint(2, 3)
        lit = (
            "["
            + ", ".join(
                "[" + ", ".join(str(rng.randint(0, 99)) for _ in range(width)) + "]"
                for _ in range(rows)
            )
            + "]"
        )
        decl, ty = "", "[[Int]]"
        muts = [
            f"q[{rng.randrange(rows)}][{rng.randrange(width)}] = {rng.randint(0, 99)}"
            for _ in range(rng.randint(1, 3))
        ]
        muts.append(
            f"q[{rng.randrange(rows)}] = ["
            + ", ".join(str(rng.randint(0, 9)) for _ in range(width))
            + "]"
        )
    else:
        n = rng.randint(2, 4)
        lit = "[" + ", ".join(f"Pair({rng.randint(0, 99)}, {rng.randint(0, 99)})" for _ in range(n)) + "]"
        decl, ty = PAIR, "[Pair]"
        muts = [
            f"q[{rng.randrange(n)}].{rng.choice(['fs', 'sn'])} = {rng.randint(0, 99)}"
            for _ in range(rng.randint(1, 4))
        ]
    baseline = f"{decl}var p: {ty} = {lit} in p"
    mutated = f"{decl}var p: {ty} = {lit} in var q: {ty} = p in " + " in ".join(muts) + " in p"
    return baseline, mutated


def test_criterion_8_value_independence():
    def body():
        for seed in range(200):
            baseline_src, mutated_src = _copy_mutate_pair(seed)
            baseline = run_source(baseline_src)[0]
            for cow in (True, False):
                for opt in (True, False):
                    out, _ = run_source(mutated_src, cow=cow, move_opt=opt)
                    assert out == baseline, (seed, cow, opt)

    _verdict(8, "mutating a copy never changes the original's formatting", body)
