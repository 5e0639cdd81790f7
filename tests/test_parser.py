import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsl import ParseError, generate_program, parse_source, pretty_program, GenConfig
from mvsl.ast import (
    ArrayLit,
    ArrayTE,
    Assign,
    Binary,
    Binding,
    Call,
    Chain,
    FuncLit,
    InoutArg,
    IntLit,
    Path,
    StructInit,
)
from mvsl.diagnostics import Span

from conftest import lexable_corpus_sources


def test_struct_then_binding():
    p = parse_source("struct Pair { var fs: Int; var sn: Int } in var p: Pair = Pair(4, 2) in p")
    assert len(p.structs) == 1
    assert p.structs[0].name == "Pair"
    assert [f.name for f in p.structs[0].fields] == ["fs", "sn"]
    assert isinstance(p.entry, Chain) and len(p.entry.stmts) == 1
    e = p.entry.stmts[0]
    assert isinstance(e, Binding) and e.qualifier == "var" and e.name == "p"
    assert isinstance(e.init, StructInit)
    assert isinstance(p.entry.tail, Path) and p.entry.tail.root == "p"


def test_wildcard_assign_with_inout_args():
    p = parse_source("_ = swap(&p.fs, &p.sn) in p")
    (e,) = p.entry.stmts
    assert isinstance(e, Assign) and e.target.root == "_"
    assert isinstance(e.value, Call)
    assert all(isinstance(a, InoutArg) for a in e.value.args)
    assert isinstance(p.entry.tail, Path)


def test_array_annotation_and_literal():
    p = parse_source("let a: [Pair] = [Pair(4,2), Pair(5,3)] in a")
    (e,) = p.entry.stmts
    assert e.qualifier == "let"
    assert isinstance(e.annotation, ArrayTE)
    assert isinstance(e.init, ArrayLit) and len(e.init.elements) == 2


def test_function_literal_sugar():
    # `var fn: () -> Int { body }` is shorthand for binding a literal.
    sugar = parse_source("var fn: () -> Int { 4 } in fn()")
    full = parse_source("var fn: () -> Int = () -> Int { 4 } in fn()")
    assert sugar == full
    (e,) = sugar.entry.stmts
    assert isinstance(e.init, FuncLit) and isinstance(e.init.body, IntLit)


def test_annotation_optional():
    p = parse_source("var p = 4 in let q = p in q")
    assert [s.annotation for s in p.entry.stmts] == [None, None]


def test_precedence():
    assert parse_source("1 + 2 * 3") == parse_source("1 + (2 * 3)")
    assert parse_source("1 * 2 + 3") == parse_source("(1 * 2) + 3")
    assert parse_source("1 + 2 < 3 + 4") == parse_source("(1 + 2) < (3 + 4)")
    assert parse_source("1 - 2 - 3") == parse_source("(1 - 2) - 3")


def test_conditional_binds_looser_than_comparison():
    p = parse_source("if a < b then 1 else 2")
    assert p.entry.cond == parse_source("a < b").entry


def test_parenthesized_statement_chain():
    # A grouped binding/assignment chain is an expression.
    p = parse_source("var q = 1 in (q = 2 in q) + q")
    assert isinstance(p.entry.tail, Binary)
    assert isinstance(p.entry.tail.lhs, Chain) and isinstance(p.entry.tail.lhs.stmts[0], Assign)


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("var x: Int = ", "expression"),
        ("var x Int = 4 in x", "="),
        ("struct Pair { var fs: Int } var p = 1 in p", "in"),
        ("f(&1)", "path"),
        ("let a = [1, 2 in a", "]"),
        ("1.", "path"),
    ],
)
def test_syntax_errors_mention_expectation(source, fragment):
    with pytest.raises(ParseError) as e:
        parse_source(source)
    assert fragment in str(e.value)


def test_round_trip_corpus():
    for name, source in lexable_corpus_sources():
        p = parse_source(source)
        assert parse_source(pretty_program(p)) == p, name


def test_parsing_builds_only_the_spans_its_trees_reach(monkeypatch):
    # A Span is built for an AST node and for nothing else: a struct
    # initializer is recognised before any Path of its name is built.
    sources = [source for _, source in lexable_corpus_sources()]
    sources += [pretty_program(generate_program(GenConfig(s, size_budget=400))) for s in range(64)]
    built = 0
    init = Span.__init__

    def counted(self, start, end):
        nonlocal built
        built += 1
        init(self, start, end)

    monkeypatch.setattr(Span, "__init__", counted)
    trees = [parse_source(source) for source in sources]
    monkeypatch.undo()
    reached: set[int] = set()
    todo: list = list(trees)
    while todo:
        node = todo.pop()
        if type(node) is Span:
            reached.add(id(node))
        elif type(node) is list or type(node) is tuple:
            todo += node
        elif dataclasses.is_dataclass(node):
            todo += [getattr(node, f.name) for f in dataclasses.fields(node)]
    assert built == len(reached)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10_000), budget=st.integers(1, 60))
def test_round_trip_generated(seed, budget):
    p = generate_program(GenConfig(seed, size_budget=budget))
    assert parse_source(pretty_program(p)) == p


@pytest.mark.parametrize(
    "source",
    [
        "var a = 1 in (var b = 2 in b)",
        "var a = 1 in (a = 2 in (var b = a in b))",
        "var q = 1 in (q = 2 in q) + q",
        "if 1 then (var a = 1 in a) else (let b = 2 in b)",
        "let f: (Int) -> Int = (x: Int) -> Int { var y = x in y = y + 1 in y } in f((let z = 1 in z))",
    ],
)
def test_round_trip_nested_chains(source):
    # A chain nested in another's tail prints in parentheses, so it does
    # not parse back as more statements of the outer chain.
    p = parse_source(source)
    assert parse_source(pretty_program(p)) == p


def test_pretty_print_fixed_point():
    for _, source in lexable_corpus_sources():
        once = pretty_program(parse_source(source))
        assert pretty_program(parse_source(once)) == once


def test_nested_parentheses_under_default_recursion_limit():
    # Each level of parentheses costs a handful of Python frames (expr,
    # operand, binary, postfix, primary); 150 levels must fit in the
    # interpreter's default limit of 1000.
    depth = 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        p = parse_source("(" * depth + "1" + ")" * depth)
    finally:
        sys.setrecursionlimit(limit)
    assert p.entry == IntLit(1)


@pytest.mark.parametrize(
    "source, value",
    [("0000007", 7), ("0" * 5000 + "7", 7), ("9223372036854775807", 2**63 - 1)],
    ids=["zeros", "5000-zeros", "int-max"],
)
def test_integer_literal_leading_zeros(source, value):
    assert parse_source(source).entry.value == value


@pytest.mark.parametrize(
    "source", ["9223372036854775808", "9" * 5000], ids=["int-max-plus-1", "5000-nines"]
)
def test_integer_literal_out_of_range(source):
    # 5000 digits exceed what int() converts from a string.
    with pytest.raises(ParseError, match="integer literal out of range"):
        parse_source(source)
