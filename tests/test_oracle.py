import builtins

import pytest

from mvsl import (
    GenConfig,
    RuntimeTrap,
    check_program,
    differential_run,
    differential_seed_run,
    execute,
    generate_program,
    interpret_eager,
    parse_source,
    pretty_program,
)
from mvsl import difftest
from mvsl import oracle as oracle_module
from mvsl import typechecker
from mvsl.ast import IntLit
from mvsl.ir import apply_move_optimization, lower_program

from conftest import corpus_sources, workloads

PAIR = "struct Pair { var fs: Int; var sn: Int } in "


def oracle(source):
    return interpret_eager(check_program(parse_source(source)))


# -- the eager interpreter ----------------------------------------------------


def test_oracle_dispatches_on_exact_types(monkeypatch):
    # eval dispatches through a table keyed by type(e), and values and
    # statements are tested with type(x) is C: one differential_run of the
    # cow_inout benchmark program makes no isinstance call in the oracle
    # (63 695 with the isinstance ladders).
    calls = 0

    def counting_isinstance(obj, cls):
        nonlocal calls
        calls += 1
        return builtins.isinstance(obj, cls)

    source = workloads.cow_source(list(range(256)))
    monkeypatch.setattr(oracle_module, "isinstance", counting_isinstance, raising=False)
    report = differential_run(parse_source(source))
    assert report["status"] == "PASS"
    assert report["results"][0]["output"] == workloads.cow_expected(list(range(256)))
    assert calls == 0


def test_copy_listing():
    assert oracle(PAIR + "var p: Pair = Pair(4, 2) in var q: Pair = p in q.sn = 8 in p") == "Pair(4, 2)"


def test_swap_listing():
    src = (
        PAIR + "struct U {} in "
        "let swap: (inout Int, inout Int) -> U = (a: inout Int, b: inout Int) -> U "
        "{ let tmp = a in a = b in b = tmp in U() } in "
        "var p = Pair(4, 2) in _ = swap(&p.fs, &p.sn) in p"
    )
    assert oracle(src) == "Pair(2, 4)"


def test_oracle_traps_match_vm_trap_set():
    with pytest.raises(RuntimeTrap) as e:
        oracle("var a: [Int] = [1] in a[5]")
    assert e.value.code == "IndexOutOfBounds"
    with pytest.raises(RuntimeTrap) as e:
        oracle("var z: Int = 0 in 1 / z")
    assert e.value.code == "DivisionByZero"


def test_oracle_enforces_overlap():
    src = (
        "struct U {} in "
        "let swap: (inout Int, inout Int) -> U = (a: inout Int, b: inout Int) -> U "
        "{ let t = a in a = b in b = t in U() } in "
        "var a: [Int] = [1, 2] in var i: Int = 0 in var j: Int = 0 in "
        "_ = swap(&a[i], &a[j]) in a"
    )
    with pytest.raises(RuntimeTrap) as e:
        oracle(src)
    assert e.value.code == "OverlapViolation"


def test_oracle_checks_overlap_without_the_type_checker(monkeypatch):
    # A type checker that wrongly rules out every runtime check lets the
    # VM run the call; the oracle checks every place of a call itself,
    # so it traps and the harness reports a FAIL.
    check = typechecker._Checker.check_exclusivity
    monkeypatch.setattr(
        typechecker._Checker, "check_exclusivity", lambda self, *args: check(self, *args) and []
    )
    source = dict(corpus_sources())["overlap_dynamic_trap.mvs"]
    report = differential_run(parse_source(source), source)
    assert report["status"] == "FAIL"
    oracle_row, *vm_rows = report["results"]
    assert oracle_row["trap"] == "OverlapViolation"
    assert all(row["trap"] is None and row["output"] == "[1, 2]" for row in vm_rows), vm_rows


def test_three_places_trap_at_the_call():
    # Only the first and the last place of the call collide.
    source = dict(corpus_sources())["overlap_dynamic_three.mvs"]
    report = differential_run(parse_source(source), source)
    assert report["status"] == "PASS"
    start = source.index("rotate(")
    span = [start, source.index(")", start) + 1]
    assert all(
        row["trap"] == "OverlapViolation" and row["span"] == span for row in report["results"]
    ), report["results"]


def test_oracle_closure_persistence():
    src = "var n: Int = 10 in var f: () -> Int = () -> Int { n = n + 1 in n } in _ = f() in f()"
    assert oracle(src) == "12"


# -- the generator ------------------------------------------------------------


def test_budget_one_is_a_literal():
    p = generate_program(GenConfig(0, size_budget=1))
    assert p.structs == []
    assert isinstance(p.entry, IntLit)


def test_determinism():
    for seed in (0, 3, 77, 4242):
        cfg = GenConfig(seed, size_budget=50)
        assert pretty_program(generate_program(cfg)) == pretty_program(generate_program(cfg))


def test_distinct_seeds_differ():
    texts = {pretty_program(generate_program(GenConfig(s, size_budget=50))) for s in range(30)}
    assert len(texts) > 25


def test_generated_programs_type_check():
    for seed in range(300):
        check_program(generate_program(GenConfig(seed, size_budget=50)))


def test_generator_exercises_language_features():
    # Inspect a window of seeds for coverage of the constructs the
    # differential harness is supposed to stress.
    winners = {"closure": 0, "inout": 0, "struct": 0, "array_write": 0, "cond": 0}
    for seed in range(60):
        text = pretty_program(generate_program(GenConfig(seed, size_budget=50)))
        winners["closure"] += "->" in text
        winners["inout"] += "&" in text
        winners["struct"] += "struct" in text
        winners["array_write"] += "] =" in text
        winners["cond"] += "if " in text
    for feature, count in winners.items():
        assert count >= 5, (feature, count)


# -- differential harness -------------------------------------------------------


def test_report_shape():
    r = differential_seed_run(5)
    assert r["status"] == "PASS"
    assert [x["config"] for x in r["results"]] == [
        "oracle",
        "vm cow=off move_opt=off",
        "vm cow=on move_opt=off",
        "vm cow=off move_opt=on",
        "vm cow=on move_opt=on",
    ]
    assert r["results"][0]["stats"] is None
    for row in r["results"][1:]:
        if row["trap"] is None:
            assert set(row["stats"]) == {
                "deep_copies",
                "retains",
                "releases",
                "moves",
                "cow_copies",
                "allocs",
                "frees",
                "closure_copies",
            }


def test_seed_run_checks_the_printed_program(monkeypatch):
    """A seed's program is checked as parsed from its printed form, which
    round-trips, so its spans, a trap's included, point into the report's
    program rather than being NO_SPAN."""
    checked = []
    run = difftest.differential_run
    monkeypatch.setattr(
        difftest, "differential_run", lambda p, *source: checked.append(p) or run(p, *source)
    )
    for seed in range(200):
        text = pretty_program(generate_program(GenConfig(seed)))
        assert differential_seed_run(seed)["program"] == text, seed
        assert repr(checked.pop()) == repr(check_program(parse_source(text)).program), seed


def test_seed_run_prints_its_program_once(monkeypatch):
    # The printed program is parsed and is the report's program: one print.
    printed = 0
    pretty = difftest.pretty_program

    def counting_pretty(program):
        nonlocal printed
        printed += 1
        return pretty(program)

    monkeypatch.setattr(difftest, "pretty_program", counting_pretty)
    for seed in range(20):
        differential_seed_run(seed)
        assert printed == seed + 1, seed


def test_corpus_differential():
    for name, source in corpus_sources():
        try:
            program = parse_source(source)
            check_program(program)
        except Exception:
            continue
        assert differential_run(program)["status"] == "PASS", name


def test_trap_parity():
    r = differential_run(parse_source("var a: [Int] = [1] in a[5]"))
    assert r["status"] == "PASS"
    assert all(row["trap"] == "IndexOutOfBounds" for row in r["results"])


def test_seed_sample_passes():
    for seed in range(120):
        assert differential_seed_run(seed)["status"] == "PASS", seed


def run_stats(tp, cow, opt):
    ir = lower_program(tp)
    if opt:
        ir = apply_move_optimization(ir)
    try:
        return execute(ir, cow=cow)[1]
    except RuntimeTrap:
        return None


def test_optimization_monotonicity():
    for seed in range(120):
        tp = check_program(generate_program(GenConfig(seed, size_budget=50)))
        for cow in (False, True):
            with_opt = run_stats(tp, cow, True)
            without = run_stats(tp, cow, False)
            if with_opt is None or without is None:
                continue
            assert with_opt.deep_copies <= without.deep_copies, seed


def test_cow_laziness():
    for seed in range(120):
        tp = check_program(generate_program(GenConfig(seed, size_budget=50)))
        stats = run_stats(tp, True, True)
        if stats is not None:
            assert stats.cow_copies <= stats.retains, seed
