import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsl import GenConfig, check_program, generate_program, interpret_eager, parse_source
from mvsl.ast import Assign, Binding, Call, Chain, Cond, FuncLit, pretty_expr
from mvsl.diagnostics import ParseError, TypeCheckError
from mvsl.typechecker import (
    DISJOINT,
    MAYBE_OVERLAP,
    OVERLAP,
    AccessPathShape,
    paths_overlap,
    shape_of_path,
)
from mvsl.types import BY_VALUE, FLOAT, INOUT, INT, ArrayType, FuncType, StructType

from conftest import corpus_expected

SWAP = """
struct U {} in
let swap: (inout Int, inout Int) -> U
  = (a: inout Int, b: inout Int) -> U {
    let tmp = a in a = b in b = tmp in U()
  } in
"""


def check(source):
    return check_program(parse_source(source))


def err_code(source):
    with pytest.raises(TypeCheckError) as e:
        check(source)
    return e.value.code


# -- diagnostic codes --------------------------------------------------------


def test_unbound_name():
    assert err_code("x + 1") == "UnboundName"
    assert err_code("var p: Pair = Pair(1, 2) in p") == "UnboundName"


def test_type_mismatch():
    assert err_code("var x: Int = 4.0 in x") == "TypeMismatch"
    assert err_code("var x: Int = 4 in x = 4.0 in x") == "TypeMismatch"
    assert err_code("var a: [Int] = [1] in a[1.5]") == "TypeMismatch"
    assert err_code("var x: Int = 4 in x.fs") == "TypeMismatch"
    assert err_code("1 + 2.0") == "TypeMismatch"
    assert err_code("if 1.0 then 1 else 2") == "TypeMismatch"
    assert err_code("var a: [Int] = [1, 2.0] in a") == "TypeMismatch"


def test_immutable_target():
    assert err_code("let x: Int = 4 in x = 5 in x") == "ImmutableTarget"
    src = "struct Pair { var fs: Int; var sn: Int } in "
    assert err_code(src + "let p: Pair = Pair(4, 2) in p.sn = 8 in p") == "ImmutableTarget"
    # let applies transitively through a var field
    assert err_code(src + "let a: [Pair] = [Pair(4,2)] in a[0].sn = 8 in a") == "ImmutableTarget"
    # and through a let field of a var value
    src2 = "struct Q { let fs: Int; var sn: Int } in "
    assert err_code(src2 + "var q: Q = Q(1, 2) in q.fs = 3 in q") == "ImmutableTarget"
    assert err_code(SWAP + "let x: Int = 1 in var y: Int = 2 in _ = swap(&x, &y) in x") == "ImmutableTarget"


def test_arity_mismatch():
    src = "struct P { var a: Int; var b: Int } in "
    assert err_code(src + "P(1)") == "ArityMismatch"
    assert err_code(src + "P(1, 2, 3)") == "ArityMismatch"
    assert err_code("var f: (Int) -> Int = (a: Int) -> Int { a } in f()") == "ArityMismatch"


def test_invalid_inout_argument():
    f = "var f: (inout Int) -> Int = (a: inout Int) -> Int { a } in var x: Int = 1 in "
    g = "var g: (Int) -> Int = (a: Int) -> Int { a } in var x: Int = 1 in "
    assert err_code(f + "f(x)") == "InvalidInoutArgument"
    assert err_code(g + "g(&x)") == "InvalidInoutArgument"


def test_overlapping_inout_static():
    src = "struct Pair { var fs: Int; var sn: Int } in " + SWAP
    assert err_code(src + "var p: Pair = Pair(4, 2) in _ = swap(&p.fs, &p.fs) in p") == "OverlappingInout"
    # whole value against one of its parts: prefix-related paths
    src3 = (
        "struct U {} in "
        "var f: (inout [Int], inout Int) -> U = (a: inout [Int], b: inout Int) -> U { U() } in "
        "var xs: [Int] = [1, 2] in _ = f(&xs, &xs[0]) in xs"
    )
    assert err_code(src3) == "OverlappingInout"
    # character-identical dynamic paths never reach the runtime
    src4 = (
        SWAP + "var a: [Int] = [1,2] in var i: Int = 0 in _ = swap(&a[i], &a[i]) in a"
    )
    assert err_code(src4) == "OverlappingInout"


CALLEE = (
    "struct B { var f: (inout B, inout Int, inout Int) -> Int; var n: Int } in "
    "var b: B = B((x: inout B, p: inout Int, q: inout Int) -> Int { x.n + p + q }, 1) in "
    "var y: Int = 2 in var z: Int = 3 in "
)


def err_message(source):
    with pytest.raises(TypeCheckError) as e:
        check(source)
    assert e.value.code == "OverlappingInout"
    return e.value.message


def test_overlapping_inout_messages():
    src = SWAP + "var a: [Int] = [1, 2] in var i: Int = 0 in _ = swap(&a[i], &a[i]) in a"
    assert err_message(src) == "inout arguments 'a[i]' and 'a[i]' overlap"
    # a path callee is one more place of the call
    assert err_message(CALLEE + "b.f(&b, &y, &z)") == (
        "inout argument 'b' overlaps the call target 'b.f'"
    )
    # a clash of two inout arguments is reported before one with the callee
    assert err_message(CALLEE + "b.f(&b, &y, &y)") == "inout arguments 'y' and 'y' overlap"


def checked_places(source):
    call = check(source).program.entry.tail
    assert isinstance(call, Call)
    return call.checked_places


def test_checked_places_index_the_places_callee_first():
    dyn = SWAP + "var a: [Int] = [1, 2] in var i: Int = 0 in "
    # the callee `swap` is place 0, read in place and never checked
    assert checked_places(dyn + "swap(&a[i], &a[0])") == [1, 2]
    # a callee that is no path is no place
    lit = "((l: inout Int, r: inout Int) -> Int { l + r })"
    assert checked_places(dyn + lit + "(&a[i], &a[0])") == [0, 1]
    fs = (
        "struct S { var f: (inout S) -> Int; var n: Int } in "
        "var ss: [S] = [S((s: inout S) -> Int { s.n }, 1), S((s: inout S) -> Int { 0 }, 2)] in "
        "var i: Int = 0 in "
    )
    assert checked_places(fs + "ss[i].f(&ss[0])") == [0, 1]
    assert checked_places(fs + "ss[0].f(&ss[1])") == []


def test_checked_places_are_every_place_of_a_root_with_a_dynamic_subscript():
    src = (
        "struct T { var f: (inout Int, inout Int, inout Int) -> Int; var xs: [Int]; var n: Int } in "
        "var t: T = T((p: inout Int, q: inout Int, r: inout Int) -> Int { p }, [1, 2], 3) in "
        "var y: Int = 4 in var i: Int = 0 in "
    )
    # t.n is statically disjoint from both elements, and checked with them
    assert checked_places(src + "t.f(&t.xs[i], &t.n, &t.xs[0])") == [1, 2, 3]
    # a root's one place is checked with nothing
    assert checked_places(src + "t.f(&t.xs[i], &y, &t.n)") == [1, 3]
    assert checked_places(src + "t.f(&t.xs[0], &y, &t.n)") == []


# Random calls over two roots, m: [[Int]] and s: S, whose closures take
# the arguments' types, against a pairwise reference on paths_overlap.
SUBSCRIPTS = ["0", "1", "i", "j"]
PLACES = [("m", "[[Int]]"), ("s", "S"), ("s.n", "Int"), ("s.m", "[[Int]]")]
for root in ("m", "s.m"):
    PLACES += [(f"{root}[{x}]", "[Int]") for x in SUBSCRIPTS]
    PLACES += [(f"{root}[{x}][{y}]", "Int") for x in SUBSCRIPTS for y in SUBSCRIPTS]
CALLEES = ["", "s.f", "s.fs[0]", "s.fs[i]", "s.fs[j]"]


def random_call(callee: str, args: list[tuple[str, str]]) -> str:
    params = ", ".join(f"a{k}: inout {ty}" for k, (_, ty) in enumerate(args))
    lit = f"({params}) -> Int {{ 0 }}"
    fn = f"({', '.join('inout ' + ty for _, ty in args)}) -> Int"
    return (
        f"struct S {{ var f: {fn}; var fs: [{fn}]; var m: [[Int]]; var n: Int }} in "
        f"var m: [[Int]] = [[1, 2], [3, 4]] in "
        f"var s: S = S({lit}, [{lit}, {lit}], [[1, 2], [3, 4]], 5) in "
        f"var i: Int = 0 in var j: Int = 1 in "
        f"{callee or '(' + lit + ')'}({', '.join('&' + p for p, _ in args)})"
    )


def pairwise_reference(places: list, n_callee: int) -> tuple[str | None, set[int]]:
    """The first clash's message, or None, and the places of the pairs
    that paths_overlap calls MaybeOverlap, by comparing every pair."""
    shapes = [shape_of_path(p) for p in places]
    maybe: set[int] = set()
    callee_clash = None
    for i in range(len(places)):
        for j in range(i + 1, len(places)):
            verdict = paths_overlap(shapes[i], shapes[j])
            if verdict == OVERLAP or shapes[i] == shapes[j]:
                if i >= n_callee:
                    a, b = pretty_expr(places[i]), pretty_expr(places[j])
                    return f"inout arguments '{a}' and '{b}' overlap", set()
                if callee_clash is None:
                    callee_clash = j
            elif verdict == MAYBE_OVERLAP:
                maybe |= {i, j}
    if callee_clash is not None:
        a, b = pretty_expr(places[callee_clash]), pretty_expr(places[0])
        return f"inout argument '{a}' overlaps the call target '{b}'", set()
    return None, maybe


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CALLEES),
    st.lists(st.sampled_from(PLACES), min_size=1, max_size=6),
)
def test_exclusivity_matches_the_pairwise_reference(callee, args):
    program = parse_source(random_call(callee, args))
    try:
        check_program(program)
        message = None
    except TypeCheckError as e:
        assert e.code == "OverlappingInout", e.message
        message = e.message
    call = program.entry.tail
    places = ([call.callee] if callee else []) + [a.path for a in call.args]
    expected, maybe = pairwise_reference(places, len(places) - len(args))
    assert message == expected
    if message is None:
        checked = call.checked_places
        assert checked == sorted(set(checked))
        assert maybe <= set(checked), (maybe, checked)
        assert callee != "s.f" or 0 not in checked  # read in place


def test_recursive_struct():
    assert err_code("struct A { var a: A } in 0") == "RecursiveStruct"
    assert err_code("struct A { var b: B } in struct B { var a: A } in 0") == "RecursiveStruct"
    # arrays store element values, so an array edge still forms a cycle
    assert err_code("struct A { var xs: [A] } in 0") == "RecursiveStruct"
    # function types hold no inline value of A; exempt
    check("struct A { var f: (A) -> Int } in 0")


def test_recursive_struct_reports_the_cycle_in_order():
    src = (
        "struct A { var b: B } in struct B { var c: [C]; var n: Int } in "
        "struct C { var f: () -> A; var d: D } in struct D { var b: B } in 0"
    )
    with pytest.raises(TypeCheckError) as e:
        check(src)
    assert e.value.message == "recursive struct cycle: B, C, D"
    assert src[e.value.span.start : e.value.span.end].startswith("struct B {")


def test_wildcard_read():
    assert err_code("_ + 1") == "WildcardRead"
    assert err_code("var x: Int = 4 in x = _ in x") == "WildcardRead"


def test_duplicate_field_names_rejected_up_front():
    from mvsl import ParseError

    with pytest.raises(ParseError, match="duplicate field"):
        check("struct A { var x: Int; var x: Int } in 0")


# -- accepted programs -------------------------------------------------------


def test_swap_listing_well_typed():
    src = (
        "struct Pair { var fs: Int; var sn: Int } in " + SWAP
        + "var p = Pair(4, 2) in _ = swap(&p.fs, &p.sn) in p"
    )
    tp = check(src)
    assert tp.entry_type == StructType("Pair")


def test_same_var_by_value_and_inout_is_legal():
    src = (
        "struct U {} in "
        "var f: (Int, inout Int) -> U = (a: Int, b: inout Int) -> U { b = b + a in U() } in "
        "var x: Int = 3 in _ = f(x, &x) in x"
    )
    check(src)


def test_let_bound_closure_is_callable():
    src = "let f: () -> Int = () -> Int { 4 } in f()"
    assert check(src).entry_type == INT


def test_closure_may_mutate_captures():
    src = "let x: Int = 1 in var f: () -> Int = () -> Int { x = x + 1 in x } in f()"
    # captured copies are mutable even when the source binding is let
    check(src)


def test_captures_recorded():
    src = "var x: Int = 1 in var y: Int = 2 in var f: () -> Int = () -> Int { x + y } in f()"
    tp = check(src)
    lit = tp.program.entry.stmts[2].init
    assert isinstance(lit, FuncLit)
    assert sorted(c.name for c in lit.captures) == ["x", "y"]


def test_comparisons_yield_int():
    assert check("1 < 2").entry_type == INT
    assert check("1.5 == 2.5").entry_type == INT


# -- paths_overlap -----------------------------------------------------------


def shape(root, *steps):
    return AccessPathShape(root, steps)


def test_overlap_examples():
    p_fs = shape(0, ("field", "fs"))
    p_sn = shape(0, ("field", "sn"))
    assert paths_overlap(p_fs, p_sn) == DISJOINT
    assert paths_overlap(shape(0), p_fs) == OVERLAP
    dyn = shape(1, ("dyn", "i"))
    assert paths_overlap(dyn, shape(1, ("dyn", "j"))) == MAYBE_OVERLAP
    assert paths_overlap(shape(0, ("lit", 0)), shape(0, ("lit", 1))) == DISJOINT
    assert paths_overlap(shape(0, ("lit", 2)), shape(0, ("lit", 2))) == OVERLAP
    assert paths_overlap(shape(0), shape(1)) == DISJOINT
    # dynamic against literal on the same array is undecidable
    assert paths_overlap(shape(0, ("dyn", "i")), shape(0, ("lit", 1))) == MAYBE_OVERLAP
    # a differing field after a dynamic index keeps it undecidable only
    # when no earlier step separates them
    assert (
        paths_overlap(
            shape(0, ("field", "a"), ("dyn", "i")), shape(0, ("field", "b"), ("dyn", "j"))
        )
        == DISJOINT
    )


step_st = st.one_of(
    st.tuples(st.just("field"), st.sampled_from(["f", "g", "h"])),
    st.tuples(st.just("lit"), st.integers(0, 3)),
    st.tuples(st.just("dyn"), st.sampled_from(["i", "j"])),
)
shape_st = st.builds(
    AccessPathShape, st.integers(0, 2), st.lists(step_st, max_size=4).map(tuple)
)


@given(shape_st, shape_st)
def test_overlap_symmetric(a, b):
    assert paths_overlap(a, b) == paths_overlap(b, a)


@given(shape_st)
def test_overlap_reflexive_without_dynamics(a):
    expected = MAYBE_OVERLAP if any(k == "dyn" for k, _ in a.steps) else OVERLAP
    assert paths_overlap(a, a) == expected


# -- whole-program properties -------------------------------------------------


def test_transitive_mutability_on_generated_programs():
    # Re-derive mutability for every assignment target by scanning the
    # source text: generated programs only assign through names the
    # generator tracked as mutable, so no target's qualifier chain may
    # contain a let.  The checker accepted them; verify it had grounds.
    for seed in range(200):
        tp = check_program(generate_program(GenConfig(seed, size_budget=40)))
        quals = {}

        def scan(e, env):
            if isinstance(e, Chain):
                env = dict(env)
                for s in e.stmts:
                    if isinstance(s, Binding):
                        scan(s.init, env)
                        env[s.name] = s.qualifier
                    else:
                        assert isinstance(s, Assign)
                        if s.target.root != "_":
                            assert env.get(s.target.root) == "var", s.target.root
                        scan(s.value, env)
                scan(e.tail, env)
            elif isinstance(e, Cond):
                scan(e.cond, env), scan(e.then, env), scan(e.orelse, env)
            elif isinstance(e, FuncLit):
                inner = {c.name: "var" for c in e.captures}
                for p in e.params:
                    inner[p.name] = "var" if p.passing == "inout" else "let"
                scan(e.body, inner)
            elif isinstance(e, Call):
                scan(e.callee, env)
                for a in e.args:
                    scan(a.path if hasattr(a, "path") else a, env)
            else:
                for v in vars(e).values() if hasattr(e, "__dict__") else ():
                    if isinstance(v, list):
                        for x in v:
                            if hasattr(x, "span") and not isinstance(x, type):
                                scan(x, env)
                    elif hasattr(v, "span") and hasattr(v, "__dict__"):
                        scan(v, env)

        scan(tp.program.entry, {})


def test_soundness_hook_generated_programs_interpret():
    # Accepted programs must not blow up inside the oracle with name or
    # arity failures; traps are the only permitted exits.
    from mvsl.diagnostics import RuntimeTrap

    for seed in range(150):
        tp = check_program(generate_program(GenConfig(seed, size_budget=45)))
        try:
            interpret_eager(tp)
        except RuntimeTrap:
            pass


def test_corpus_type_outcomes(corpus):
    for name, source in corpus:
        expected = corpus_expected(name)
        if expected.startswith("error["):
            code = expected[len("error[") : -1]
            with pytest.raises(ParseError if code == "Syntax" else TypeCheckError) as e:
                check(source)
            assert e.value.code == code, name
        else:
            check(source)


def test_function_types_compare_and_hash_structurally():
    # FuncType keeps its hash once computed; equality stays structural.
    def make(ret):
        return FuncType(((BY_VALUE, ArrayType(INT)), (INOUT, StructType("P"))), ret)

    a, b = make(INT), make(INT)
    assert a == b and a is not b and hash(a) == hash(b) == hash(make(INT))
    assert {a: 1}[b] == 1
    assert a != make(FLOAT) and hash(a) == hash(a)
    assert repr(a) == repr(make(INT))
