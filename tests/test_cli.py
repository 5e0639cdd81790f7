import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvsl.cli as cli
import mvsl.difftest as difftest
import mvsl.vm as vm_module
from mvsl import parse_source
from mvsl.diagnostics import RuntimeTrap, Span

from conftest import CORPUS, corpus_expected, corpus_files


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    """The environment of a child that imports this checkout's mvsl."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def spawn_cli(*argv):
    """Run `python -m mvsl` in a child that imports this checkout's mvsl."""
    return subprocess.run(
        [sys.executable, "-m", "mvsl", *argv], capture_output=True, text=True, env=_child_env()
    )


def spawn_cli_closing_stdout(lines, *argv):
    """Run `python -m mvsl` with stdout a pipe whose reader reads that many
    lines and then closes it: (exit code, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "mvsl", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), err


@pytest.fixture()
def pair_file(tmp_path):
    f = tmp_path / "pair.mvs"
    f.write_text(
        "struct Pair { var fs: Int; var sn: Int } in var p: Pair = Pair(4, 2) in p\n"
    )
    return str(f)


@pytest.fixture()
def trap_file(tmp_path):
    f = tmp_path / "oob.mvs"
    f.write_text("var a: [Int] = [1, 2] in a[5]\n")
    return str(f)


@pytest.fixture()
def bad_file(tmp_path):
    f = tmp_path / "bad.mvs"
    f.write_text("let x: Int = 4 in x = 5 in x\n")
    return str(f)


# -- run ------------------------------------------------------------------------


def test_run_value_only_on_stdout(capsys, pair_file):
    code, out, err = run_cli(capsys, "run", pair_file)
    assert code == 0
    assert out == "Pair(4, 2)\n"
    assert err == ""


def test_run_stats_go_to_stderr(capsys, pair_file):
    code, out, err = run_cli(capsys, "run", pair_file, "--stats")
    assert code == 0
    assert out == "Pair(4, 2)\n"
    stats = json.loads(err)
    assert list(stats) == [
        "deep_copies",
        "retains",
        "releases",
        "moves",
        "cow_copies",
        "allocs",
        "frees",
        "closure_copies",
    ]


@pytest.mark.parametrize(
    "flags, phases",
    [
        ([], ["lex", "parse", "check", "lower", "move_opt", "execute"]),
        (["--no-move-opt"], ["lex", "parse", "check", "lower", "execute"]),
        (["--oracle"], ["lex", "parse", "check", "oracle"]),
    ],
    ids=["vm", "no-move-opt", "oracle"],
)
def test_run_timings_go_to_stderr(capsys, pair_file, flags, phases):
    code, out, err = run_cli(capsys, "run", pair_file, "--timings", *flags)
    assert code == 0
    assert out == "Pair(4, 2)\n"
    timings = json.loads(err)
    assert list(timings) == phases
    assert all(type(t) is float and t >= 0 for t in timings.values())


def test_run_timings_follow_stats_and_traps(capsys, pair_file, trap_file):
    code, out, err = run_cli(capsys, "run", pair_file, "--stats", "--timings")
    stats, timings = map(json.loads, err.splitlines())
    assert code == 0 and out == "Pair(4, 2)\n"
    assert "moves" in stats and "execute" in timings
    # A trap is reported first; the phase that trapped is still timed.
    code, out, err = run_cli(capsys, "run", trap_file, "--timings")
    trap, timings = err.splitlines()
    assert code == 2 and out == ""
    assert "trap[IndexOutOfBounds]" in trap
    assert list(json.loads(timings))[-1] == "execute"


def test_run_flag_combinations_same_value(capsys, pair_file):
    for flags in ([], ["--no-cow"], ["--no-move-opt"], ["--no-cow", "--no-move-opt"], ["--oracle"]):
        code, out, _ = run_cli(capsys, "run", pair_file, *flags)
        assert code == 0 and out == "Pair(4, 2)\n", flags


def test_run_trap_exit_2(capsys, trap_file):
    code, out, err = run_cli(capsys, "run", trap_file)
    assert code == 2
    assert out == ""
    assert "trap[IndexOutOfBounds]" in err
    assert err.startswith(trap_file + ":")


def test_run_type_error_exit_1(capsys, bad_file):
    code, out, err = run_cli(capsys, "run", bad_file)
    assert code == 1
    assert out == ""
    assert "error[ImmutableTarget]" in err


def test_run_syntax_error_exit_1(capsys, tmp_path):
    f = tmp_path / "syn.mvs"
    f.write_text("var = 4")
    code, _, err = run_cli(capsys, "run", str(f))
    assert code == 1 and "error[" in err


def test_dump_modes(capsys, pair_file, tmp_path):
    code, ast_out, _ = run_cli(capsys, "run", pair_file, "--dump=ast")
    assert code == 0 and "struct Pair" in ast_out
    code, ir_out, _ = run_cli(capsys, "run", pair_file, "--dump=ir")
    assert code == 0 and "routine @entry" in ir_out
    code, ty_out, _ = run_cli(capsys, "run", pair_file, "--dump=types")
    assert code == 0
    assert "p: Pair" in ty_out and "result: Pair" in ty_out
    # an assignment in the chain does not end the list of bindings
    chain = tmp_path / "chain.mvs"
    chain.write_text("var x: Int = 1 in x = 2 in var y: Float = 3.0 in y\n")
    code, ty_out, _ = run_cli(capsys, "run", str(chain), "--dump=types")
    assert code == 0 and ty_out == "x: Int\ny: Float\nresult: Float\n"


def test_dump_ir_without_move_opt(capsys, pair_file):
    code, opt_out, _ = run_cli(capsys, "run", pair_file, "--dump=ir")
    code_noopt, noopt_out, err = run_cli(capsys, "run", pair_file, "--dump=ir", "--no-move-opt")
    assert code == code_noopt == 0 and err == ""
    # Optimized, the struct is made in the result slot: no copy is left.
    assert "copy" in noopt_out and "copy" not in opt_out


def test_dump_does_not_execute(capsys, trap_file):
    # a program that would trap still dumps cleanly
    code, out, _ = run_cli(capsys, "run", trap_file, "--dump=ir")
    assert code == 0 and "routine" in out


def test_oracle_ignores_stats(capsys, pair_file):
    code, out, err = run_cli(capsys, "run", pair_file, "--oracle", "--stats")
    assert code == 0 and out == "Pair(4, 2)\n"
    assert err == ""  # the eager interpreter keeps no counters


# -- check ----------------------------------------------------------------------


def test_check_ok(capsys, pair_file):
    code, out, _ = run_cli(capsys, "check", pair_file)
    assert code == 0 and out == "ok\n"


def test_check_reports_diagnostic(capsys, bad_file):
    code, out, err = run_cli(capsys, "check", bad_file)
    assert code == 1 and out == ""
    assert "error[ImmutableTarget]" in err


# -- diff -----------------------------------------------------------------------


def test_diff_file(capsys, pair_file):
    code, out, _ = run_cli(capsys, "diff", pair_file)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "PASS"
    assert len(report["results"]) == 5


def test_diff_seeds(capsys):
    code, out, _ = run_cli(capsys, "diff", "--seed=10", "--trials=4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(json.loads(l)["status"] == "PASS" for l in lines)


def test_diff_fail_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "differential_seed_run",
        lambda seed: {"program": "0", "results": [], "status": "FAIL"},
    )
    code, out, _ = run_cli(capsys, "diff", "--seed=0", "--trials=2")
    assert code == 3
    assert all(json.loads(l)["status"] == "FAIL" for l in out.strip().splitlines())


def test_diff_fails_on_a_trap_at_another_span(capsys, monkeypatch, trap_file):
    # Same trap kind as the VM, reported at the whole program instead of
    # at the subscript: a position disagreement is a FAIL.
    def misplaced_oracle(tp):
        raise RuntimeTrap(Span(0, 29), "IndexOutOfBounds", "index 5 out of bounds")

    monkeypatch.setattr(difftest, "interpret_eager", misplaced_oracle)
    code, out, _ = run_cli(capsys, "diff", trap_file)
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "FAIL"
    assert {row["trap"] for row in report["results"]} == {"IndexOutOfBounds"}
    oracle, *vms = report["results"]
    assert oracle["span"] == [0, 29]
    assert all(vm["span"] == [25, 29] for vm in vms)


def test_a_leak_is_a_fail_row_not_an_exception(capsys, monkeypatch):
    # A VM that never frees a block fails execute's leak assertion on
    # every configuration; the harness reports it and raises nothing.
    monkeypatch.setattr(vm_module.VM, "destroy_value", lambda self, v: None)
    path = CORPUS / "array_of_pairs.mvs"
    report = difftest.differential_run(parse_source(path.read_text()))
    assert report["status"] == "FAIL"
    oracle, *vms = report["results"]
    assert oracle == {"config": "oracle", "output": corpus_expected(path.name), "trap": None,
                      "span": None, "stats": None}
    for row in vms:
        assert (row["output"], row["trap"], row["span"], row["stats"]) == (None,) * 4
        assert row["crash"].startswith("AssertionError: leak: allocs "), row
    code, out, _ = run_cli(capsys, "diff", str(path))
    assert code == 3
    assert json.loads(out) == report


@pytest.mark.parametrize("where", ["interpret_eager", "lower_program"])
def test_a_crash_in_the_oracle_or_in_lowering_is_a_fail(capsys, monkeypatch, pair_file, where):
    def crash(*_args):
        raise RecursionError("maximum recursion depth exceeded\nwhile calling a Python object")

    monkeypatch.setattr(difftest, where, crash)
    code, out, _ = run_cli(capsys, "diff", pair_file)
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "FAIL"
    crashed = [row["config"] for row in report["results"] if "crash" in row]
    assert crashed == (["oracle"] if where == "interpret_eager" else [
        "vm cow=off move_opt=off", "vm cow=on move_opt=off",
        "vm cow=off move_opt=on", "vm cow=on move_opt=on",
    ])
    assert {row.get("crash") for row in report["results"]} >= {
        "RecursionError: maximum recursion depth exceeded"
    }


def test_diff_type_error_exit_1(capsys, bad_file):
    code, _, err = run_cli(capsys, "diff", bad_file)
    assert code == 1 and "error[" in err


# -- usage errors ------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["run"],
        ["run", "nonexistent.mvs"],
        ["diff"],
        ["diff", "--trials=0"],
        ["run", "x.mvs", "--dump=tokens"],
        ["check"],
    ],
)
def test_usage_errors_exit_4(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 4
    assert "usage" in err.lower() or "error" in err.lower()


@pytest.mark.parametrize(
    "flags",
    [
        ["diff", "{file}", "--seed=1"],
        ["diff", "{file}", "--trials=2"],
        ["diff", "nonexistent.mvs", "--seed=0"],
        ["run", "{file}", "--oracle", "--dump=ir"],
        ["run", "{file}", "--oracle", "--no-cow"],
        ["run", "{file}", "--oracle", "--no-move-opt"],
        ["run", "{file}", "--dump=ast", "--stats"],
        ["run", "{file}", "--dump=types", "--stats"],
        ["run", "{file}", "--dump=ir", "--stats"],
        ["run", "{file}", "--dump=ir", "--timings"],
        ["run", "{file}", "--dump=ast", "--oracle"],
        ["run", "{file}", "--dump=types", "--oracle"],
        ["run", "{file}", "--dump=ast", "--no-cow"],
        ["run", "{file}", "--dump=types", "--no-cow"],
        ["run", "{file}", "--dump=ir", "--no-cow"],
        ["run", "{file}", "--dump=ast", "--no-move-opt"],
        ["run", "{file}", "--dump=types", "--no-move-opt"],
    ],
    ids=["diff-seed", "diff-trials", "diff-missing-seed", "oracle-dump-ir", "oracle-no-cow",
         "oracle-no-move-opt", "dump-ast-stats", "dump-types-stats", "dump-ir-stats",
         "dump-ir-timings", "dump-ast-oracle", "dump-types-oracle", "dump-ast-no-cow",
         "dump-types-no-cow", "dump-ir-no-cow", "dump-ast-no-move-opt", "dump-types-no-move-opt"],
)
def test_ignored_option_combinations_are_usage_errors(capsys, pair_file, flags):
    code, out, err = run_cli(capsys, *(f.format(file=pair_file) for f in flags))
    assert code == 4 and out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("command", ["run", "check", "diff"])
def test_undecodable_input_is_usage_error(tmp_path, command):
    f = tmp_path / "bytes.mvs"
    f.write_bytes(b"\xff\xfe1")
    proc = spawn_cli(command, str(f))
    assert proc.returncode == 4
    assert proc.stderr.startswith("usage error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# -- a reader that stops early ------------------------------------------------------


def test_stdout_closed_after_one_line_exits_quietly(tmp_path):
    # A dump far larger than a pipe's buffer: the child is still writing
    # when the reader stops, as in `mvsl run --dump=ir FILE | head -1`.
    f = tmp_path / "chain.mvs"
    steps = "".join(f"var x{i}: [Int] = a in x{i}[0] = {i} in\n" for i in range(3000))
    f.write_text(f"var a: [Int] = [0] in\n{steps}a[0]\n")
    assert spawn_cli_closing_stdout(1, "run", "--dump=ir", str(f)) == (cli.EXIT_BROKEN_PIPE, "")


@pytest.mark.parametrize(
    "argv",
    [["run", "{file}"], ["run", "{file}", "--dump=ast"], ["check", "{file}"], ["diff", "{file}"]],
    ids=["run", "dump", "check", "diff"],
)
def test_stdout_closed_before_any_output_exits_quietly(pair_file, argv):
    argv = [a.format(file=pair_file) for a in argv]
    assert spawn_cli_closing_stdout(0, *argv) == (cli.EXIT_BROKEN_PIPE, "")


# -- corpus golden ------------------------------------------------------------------


def test_corpus_golden(capsys):
    for f in corpus_files():
        expected = corpus_expected(f.name)
        code, out, err = run_cli(capsys, "run", str(f))
        if expected.startswith("error["):
            assert code == 1, f.name
            assert expected in err, f.name
            assert out == ""
        elif expected.startswith("trap["):
            assert code == 2, f.name
            assert expected in err, f.name
            assert out == ""
            # The oracle reports the same trap at the same position.
            assert run_cli(capsys, "run", str(f), "--oracle") == (code, out, err), f.name
        else:
            assert code == 0, f.name
            assert out == expected + "\n", f.name


def test_console_entry_point():
    # one end-to-end spawn through the installed script path
    proc = spawn_cli("run", str(CORPUS / "swap.mvs"))
    assert proc.returncode == 0
    assert proc.stdout == "Pair(2, 4)\n"
