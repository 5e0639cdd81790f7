import pathlib
import sys

import pytest

import mvsl
from mvsl import apply_move_optimization, check_program, execute, lower_program, parse_source

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
PACKAGE = str(pathlib.Path(mvsl.__file__).resolve().parent)

# The benchmark's workload builder, so tests run the benchmark's programs.
sys.path.append(str(CORPUS.parent / "perfbench"))
import workloads  # noqa: E402


def lower_source(source, move_opt=True):
    ir = lower_program(check_program(parse_source(source)))
    return apply_move_optimization(ir) if move_opt else ir


def run_source(source, cow=True, move_opt=True, debug=False):
    """Full pipeline on a source string; returns (text, stats)."""
    return execute(lower_source(source, move_opt), cow=cow, debug=debug)


# The file name mvsl.codegen compiles each routine's function under.
COMPILED = "<mvsl "


def line_events(fn, arg):
    """(line events inside the package and in the routines it compiled
    while fn(arg) runs, its result)."""
    count = 0

    def local(frame, event, _arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def tracer(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith((PACKAGE, COMPILED)) else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn(arg)
    finally:
        sys.settrace(previous)
    return count, result


def corpus_files():
    files = sorted(CORPUS.glob("*.mvs"))
    assert files, f"no corpus programs under {CORPUS}"
    return files


def corpus_sources():
    return [(f.name, f.read_text()) for f in corpus_files()]


def corpus_expected(name):
    return (CORPUS / name.replace(".mvs", ".expected")).read_text().strip()


def lexable_corpus_sources():
    """The corpus without its error[Syntax] entries, which do not tokenize
    or parse."""
    return [(n, s) for n, s in corpus_sources() if corpus_expected(n) != "error[Syntax]"]


@pytest.fixture(scope="session")
def corpus():
    return corpus_sources()
