"""Documented limits, and inputs that reach them without a traceback.

A chain of `var`/`let`/assignment statements is one node that every pass
loops over, so its length has no limit.  Nesting does: past
MAX_NESTING levels the parser reports `error[Syntax]: nesting too deep`,
and the deepest program it accepts runs through every pass under
Python's default recursion limit.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import mvsl.cli as cli
import mvsl.oracle as oracle
from mvsl import (
    ParseError,
    apply_move_optimization,
    check_program,
    dump_ast,
    dump_ir,
    execute,
    interpret_eager,
    lower_program,
    parse_source,
    pretty_program,
)
from mvsl.difftest import differential_run
from mvsl.parser import MAX_NESTING
from mvsl.typechecker import TypingContext

DEFAULT_RECURSION_LIMIT = 1000


@contextlib.contextmanager
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def run_cli(*argv):
    """cli.main in this process under the default recursion limit:
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with default_recursion_limit(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- nesting -----------------------------------------------------------------------

# Each form as a source of n levels.  A function literal is one level and
# the operand that is its body another, so an immediately-called literal
# nests two levels at a time.
FORMS = {
    "parentheses": lambda n: "(" * n + "1" + ")" * n,
    "brackets": lambda n: "[" * n + "1" + "]" * n,
    "if-arms": lambda n: "if 1 then " * n + "7" + " else 0" * n,
    "call-arguments": lambda n: (
        "let f: (Int) -> Int = (x: Int) -> Int { x + 1 } in " + "f(" * n + "0" + ")" * n
    ),
    "called-literals": lambda n: "() -> Int { " * (n // 2) + "1" + " }()" * (n // 2),
    "binary-operators": lambda n: "+".join(["1"] * (n + 1)),
    "subscripts": lambda n: "let a: [Int] = [0] in " + "a[" * n + "0" + "]" * n,
    "inout-subscripts": lambda n: (
        "var a: [Int] = [0] in let g: (inout Int) -> Int = (x: inout Int) -> Int { 0 } in "
        + "g(&a[" * n + "0" + "])" * n
    ),
    "types": lambda n: (
        "let a: " + "[" * n + "Int" + "]" * n + " = " + "[" * n + "1" + "]" * n + " in a"
    ),
}


def run_every_pass(source: str) -> None:
    program = parse_source(source)
    pretty_program(program)
    dump_ast(program)
    typed = check_program(program)
    base = lower_program(typed)
    optimized = apply_move_optimization(base)
    dump_ir(optimized)
    results = {execute(ir, cow=cow)[0] for ir in (base, optimized) for cow in (False, True)}
    results.add(interpret_eager(typed))
    assert len(results) == 1, results
    assert differential_run(program)["status"] == "PASS"


@pytest.mark.parametrize("form", FORMS)
def test_deepest_accepted_nesting_runs_every_pass(form):
    with default_recursion_limit():
        run_every_pass(FORMS[form](MAX_NESTING))


@pytest.mark.parametrize("form", FORMS)
def test_one_level_deeper_is_a_syntax_error(form):
    n = MAX_NESTING + (2 if form == "called-literals" else 1)
    with default_recursion_limit(), pytest.raises(ParseError) as e:
        parse_source(FORMS[form](n))
    assert e.value.message == f"nesting too deep (limit {MAX_NESTING})"


@pytest.mark.parametrize(
    "source",
    ["(" * 198 + "1" + ")" * 198, "+".join(["1"] * 331)],
    ids=["198-parentheses", "331-terms"],
)
def test_too_deep_is_error_syntax_exit_1(tmp_path, source):
    f = tmp_path / "deep.mvs"
    f.write_text(source)
    code, out, err = run_cli("run", str(f))
    assert code == 1 and out == ""
    assert "error[Syntax]: nesting too deep (limit 150)" in err


# The deepest Python stack, (check_program, lower_program), that each
# form reaches at MAX_NESTING levels, their own frames included.  Both
# dispatch through a table whose handlers call the table themselves, so
# a level costs the frames of its own handling and no dispatch frame.
# Checking inout-subscripts is deepest, in pretty_expr's rendering of a
# dynamic subscript for the exclusivity check.
COMPILE_FRAMES = {
    "parentheses": (3, 6),
    "brackets": (152, 154),
    "if-arms": (152, 154),
    "call-arguments": (155, 155),
    "called-literals": (153, 231),
    "binary-operators": (152, 303),
    "subscripts": (303, 454),
    "inout-subscripts": (604, 454),
    "types": (154, 156),
}


def deepest_stack(fn, *args) -> tuple[int, object]:
    """(the most Python frames fn(*args) had on the stack at once, its own
    included; its result)."""
    depth = most = 0

    def profile(frame, event, arg):
        nonlocal depth, most
        if event == "call":
            depth += 1
            most = max(most, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return most, result


@pytest.mark.parametrize("form", FORMS)
def test_checking_and_lowering_do_not_deepen_the_stack(form):
    check, typed = deepest_stack(check_program, parse_source(FORMS[form](MAX_NESTING)))
    lower, _ = deepest_stack(lower_program, typed)
    assert check <= COMPILE_FRAMES[form][0] and lower <= COMPILE_FRAMES[form][1], (check, lower)


# -- long chains -----------------------------------------------------------------------


def binding_chain(n: int) -> str:
    """n steps of `var xi: [Int] = a in xi[0] = i in`: 2n statements."""
    steps = "".join(f"var x{i}: [Int] = a in x{i}[0] = {i} in\n" for i in range(1, n + 1))
    return f"var a: [Int] = [0, 0] in\n{steps}x{n}[0] + a[1]\n"


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory):
    f = tmp_path_factory.mktemp("chain") / "chain.mvs"
    f.write_text(binding_chain(2000))
    return str(f)


@pytest.mark.parametrize(
    "flags", [[], ["--oracle"], ["--stats"]], ids=["run", "oracle", "stats"]
)
def test_long_chain_runs(long_chain, flags):
    code, out, err = run_cli("run", long_chain, *flags)
    assert (code, out) == (0, "2000\n"), err


def test_long_chain_diff(long_chain):
    code, out, err = run_cli("diff", long_chain)
    assert code == 0, err
    assert '"status":"PASS"' in out


@pytest.mark.parametrize("mode", ["ast", "types", "ir"])
def test_long_chain_dumps(long_chain, mode):
    code, out, err = run_cli("run", long_chain, f"--dump={mode}")
    assert code == 0, err
    lines = out.splitlines()
    if mode == "types":
        assert len(lines) == 2002 and lines[-2:] == ["x2000: [Int]", "result: Int"]
    elif mode == "ast":
        assert lines.count("Binding var x2000: [Int]") == 1
    else:
        assert lines[0].startswith("routine @entry()")


def test_chain_scopes_do_not_grow_with_its_length(monkeypatch):
    """The checker pushes, and the oracle builds, one scope per chain,
    not one per binding."""
    counts = {"push": 0, "scope": 0}
    push = TypingContext.push

    def counting_push(self):
        counts["push"] += 1
        push(self)

    class CountingScope(oracle.Scope):
        def __init__(self, *args):
            counts["scope"] += 1
            super().__init__(*args)

    monkeypatch.setattr(TypingContext, "push", counting_push)
    monkeypatch.setattr(oracle, "Scope", CountingScope)
    seen = []
    for n in (1000, 2000):
        counts.update(push=0, scope=0)
        typed = check_program(parse_source(binding_chain(n)))
        assert interpret_eager(typed) == str(n)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == {"push": 1, "scope": 2}


def test_long_struct_chain_checks(tmp_path):
    """Struct cycles are found with an explicit stack: a chain of 2 000
    structs, each holding the next inline, checks under the default
    recursion limit."""
    n = 2000
    decls = "".join(f"struct S{i} {{ var a: S{i + 1} }} in\n" for i in range(n - 1))
    f = tmp_path / "structs.mvs"
    f.write_text(decls + f"struct S{n - 1} {{ var a: Int }} in\n0")
    assert run_cli("check", str(f)) == (0, "ok\n", "")


# -- call depth -----------------------------------------------------------------------

# An interpreted call costs the VM two Python frames (exec_call and the
# callee body's exec_block) plus one per CondBr arm it is in.  From a
# routine's 50th entry in a run on, a call runs its compiled function
# (mvsl.codegen), one Python frame in all.  Under pytest and the default
# recursion limit this recursion reaches 852 calls (849 with
# --no-move-opt --no-cow), against 316 when every call was interpreted;
# the oracle stops at 315.
CALL_DEPTH = 280


def closure_recursion(n: int) -> str:
    """n nested calls of a closure held in a struct; the value is n."""
    return (
        "struct F { var fn: (F, Int) -> Int } in\n"
        "let r: (F, Int) -> Int = (s: F, n: Int) -> Int "
        "{ if n < 1 then 0 else s.fn(s, n - 1) + 1 } in\n"
        f"let box: F = F(r) in box.fn(box, {n})\n"
    )


@pytest.mark.parametrize("flags", [[], ["--no-move-opt", "--no-cow"]], ids=["opt", "naive"])
def test_closure_recursion_depth(tmp_path, flags):
    f = tmp_path / "deep_calls.mvs"
    f.write_text(closure_recursion(CALL_DEPTH))
    assert run_cli("run", str(f), *flags) == (0, f"{CALL_DEPTH}\n", "")


# -- the command line never ends in a traceback ---------------------------------------------

COMMANDS = [
    ["run"],
    ["run", "--oracle"],
    ["run", "--no-cow", "--no-move-opt"],
    ["run", "--stats", "--timings"],
    ["run", "--dump=ast"],
    ["run", "--dump=types"],
    ["run", "--dump=ir"],
    ["check"],
    ["diff"],
]

nested_source = st.builds(
    lambda make, n: make(n),
    st.sampled_from(list(FORMS.values())),
    st.integers(0, 2 * MAX_NESTING),
)
chain_source = st.integers(1, 1500).map(binding_chain)
source_bytes = st.one_of(
    st.binary(max_size=300),
    st.one_of(nested_source, chain_source).map(str.encode),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=source_bytes, command=st.sampled_from(COMMANDS))
def test_cli_exits_with_a_documented_code(tmp_path, data, command):
    f = tmp_path / "fuzz.mvs"
    f.write_bytes(data)
    code, _, err = run_cli(command[0], str(f), *command[1:])
    event(f"exit {code}")
    assert code in (0, 1, 2, 4), err
    assert "Traceback" not in err
