"""Small-step source-language interpreter."""

import pytest

from fgdict import fg_ast as fg, fg_interp
from fgdict.fg_parser import parse_expr, parse_program, print_expr
from fgdict.gen import GenConfig, gen_program

PROG = """
package main
type A struct {}
type Pair struct { x A; y A }
type I interface { id() A }
func (this A) id() A { return this }
func (this Pair) fst() A { return this.x }
func main() { _ = Pair{A{}, A{}}.fst() }
"""


@pytest.fixture
def decls():
    return parse_program(PROG).table


def eval_src(decls, src, fuel=1000, mode=fg.CORE):
    return fg_interp.fg_eval(decls, parse_expr(src, mode=mode), fuel)


def test_field_projection(decls):
    out = eval_src(decls, "Pair{A{}, A{}}.x")
    assert isinstance(out, fg_interp.Value)
    assert print_expr(out.value) == "A{}"
    assert out.steps == 1


def test_method_call_substitutes_receiver(decls):
    out = eval_src(decls, "Pair{A{}, A{}}.fst()")
    assert print_expr(out.value) == "A{}"
    assert out.steps == 2  # fg-call, then fg-field


def test_assert_on_conforming_value_is_identity(decls):
    out = eval_src(decls, "A{}.id().(I)")
    assert isinstance(out, fg_interp.Value)
    assert out.steps == 2  # fg-call then fg-assert


def test_failing_assert_sticks(decls):
    out = eval_src(decls, "Pair{A{}.(I).(Pair), A{}}.x")
    assert isinstance(out, fg_interp.StuckOutcome)
    assert out.reason == fg_interp.ASSERT_FAILURE


def test_context_descent_costs_nothing(decls):
    # Three redexes nested inside struct literal arguments.
    out = eval_src(decls, "Pair{Pair{A{}, A{}}.fst(), Pair{A{}, A{}}.y}")
    assert isinstance(out, fg_interp.Value)
    assert out.steps == 3


def test_left_to_right_order(decls):
    e = parse_expr("Pair{Pair{A{}, A{}}.x, Pair{A{}, A{}}.y}")
    r = fg_interp.fg_step(decls, e)
    assert isinstance(r, fg_interp.Stepped)
    # The left argument must reduce first.
    assert print_expr(r.expr) == "Pair{A{}, Pair{A{}, A{}}.y}"


def test_determinism(decls):
    e = parse_expr("Pair{Pair{A{}, A{}}.fst(), A{}.id()}.fst()")
    r1 = fg_interp.fg_step(decls, e)
    r2 = fg_interp.fg_step(decls, e)
    assert r1 == r2


def test_values_do_not_step(decls):
    e = parse_expr("Pair{A{}, A{}}")
    assert fg_interp.fg_step(decls, e) == fg_interp.Value(e, 0)


def test_stuck_terms_do_not_step(decls):
    r = fg_interp.fg_step(decls, parse_expr("A{}.nope()"))
    assert r == fg_interp.StuckOutcome(fg_interp.NO_METHOD, "no method nope on A", 0)


A = fg.StructLit("A", ())


@pytest.mark.parametrize("term, reason, detail, steps", [
    (fg.Select(fg.IntLit(1), "x"), fg_interp.BAD_FIELD, "selecting x from non-struct value", 0),
    (fg.Select(A, "x"), fg_interp.BAD_FIELD, "no field x on A", 0),
    (fg.Select(fg.Call(A, "id", ()), "x"), fg_interp.BAD_FIELD, "no field x on A", 1),
    (fg.Call(fg.IntLit(1), "m", ()), fg_interp.NO_METHOD, "calling m on non-struct value", 0),
    (fg.Call(A, "id", (A,)), fg_interp.NO_METHOD, "arity mismatch calling id on A", 0),
])
def test_an_ill_typed_term_sticks(decls, term, reason, detail, steps):
    """The stuck states a well-typed program never reaches, on hand-built
    terms."""
    out = fg_interp.fg_eval(decls, term, 100)
    assert out == fg_interp.StuckOutcome(reason, detail, steps)


def test_out_of_fuel(decls):
    out = eval_src(decls, "Pair{A{}, A{}}.fst()", fuel=1)
    assert isinstance(out, fg_interp.OutOfFuel)
    assert out.steps == 1


def test_fuel_monotonicity(decls):
    # Once a result is reached with fuel n, any larger fuel gives the same.
    src = "Pair{A{}.id(), A{}}.fst().(I)"
    final = eval_src(decls, src, fuel=1000)
    for fuel in range(0, 8):
        out = eval_src(decls, src, fuel=fuel)
        if not isinstance(out, fg_interp.OutOfFuel):
            assert out == final
    assert eval_src(decls, src, fuel=final.steps) == final


def test_trace_reports_each_step(decls):
    log = []
    fg_interp.fg_eval(decls, parse_expr("Pair{A{}, A{}}.fst()"), 100,
                      trace=lambda n, rule, text: log.append((n, rule)))
    assert [r for _n, r in log] == ["fg-call", "fg-field"]


def test_primitive_steps():
    decls = parse_program("""
    package main
    type A struct {}
    func main() { _ = A{} }
    """, mode=fg.EXT).table
    out = eval_src(decls, "1 < 2 && 3 == 3", mode=fg.EXT)
    assert out.value == fg.BoolLit(True)
    assert out.steps == 3


def test_free_variable_sticks(decls):
    out = eval_src(decls, "x")
    assert isinstance(out, fg_interp.StuckOutcome)
    assert out.reason == fg_interp.FREE_VAR


def test_runaway_nesting_reports_out_of_fuel():
    decls = parse_program("""
    package main
    type A struct {}
    func (this A) grow() A { return A{}.grow().id() }
    func (this A) id() A { return this }
    func main() { _ = A{}.grow() }
    """).table
    out = eval_src(decls, "A{}.grow()", fuel=10 ** 6)
    assert isinstance(out, fg_interp.OutOfFuel)
    assert out.steps == 10 ** 6


@pytest.mark.parametrize("term", [
    object(),
    fg.Select(fg.StructLit("Pair", (fg.StructLit("A", ()), "junk")), "x"),
])
def test_term_that_is_not_fg_sticks(decls, term):
    out = fg_interp.fg_eval(decls, term, 100)
    assert isinstance(out, fg_interp.StuckOutcome)
    assert out.reason == fg_interp.BAD_PRIM
    assert out.detail.startswith("cannot reduce ")
    assert out.steps == 0


def test_children_rejects_what_is_not_fg():
    with pytest.raises(TypeError, match="not an FG expression"):
        fg.children("junk")


@pytest.mark.parametrize("mode", [fg.CORE, fg.EXT])
def test_remake_from_children_is_identity(mode):
    nodes = [e for seed in range(20)
             for e in fg.program_exprs(gen_program(GenConfig(seed=seed, mode=mode)))
             if fg.children(e)]
    assert {type(e) for e in nodes} >= {fg.StructLit, fg.Call, fg.Select}
    assert all(fg.remake(e, fg.children(e)) == e for e in nodes)


def test_subst_replaces_every_bound_variable_at_once():
    e = parse_expr("Pair{x, y}.fst()")
    a, b = parse_expr("A{}"), parse_expr("y")
    assert print_expr(fg.subst(e, {"x": b, "y": a})) == "Pair{y, A{}}.fst()"


BOXES = """
package main
type A struct {}
type Box struct { a A }
type Pair struct { x A; y A }
func (this A) m(x A) A { return x }
func (this A) id() A { return this }
func main() { _ = A{} }
"""


@pytest.mark.parametrize("src", ["A{}", "Box{A{}}", "Pair{A{}, A{}}", "Box{Box{Pair{A{}, A{}}}}"])
def test_a_closed_value_is_its_own_result(src):
    """A struct literal whose arguments all come back as themselves is not
    rebuilt, at any depth, and a method returns the very value it was
    given."""
    decls = parse_program(BOXES).table
    v = parse_expr(src)
    out = fg_interp.fg_eval(decls, v, 10)
    assert out.value is v and out.steps == 0
    call = fg.Call(fg.StructLit("A", ()), "m", (v,))
    out = fg_interp.fg_eval(decls, call, 10)
    assert out.value is v and out.steps == 1


@pytest.mark.parametrize("src", ["Box{A{}.id()}", "Pair{A{}, A{}.id()}", "Pair{A{}.id(), A{}}"])
def test_a_literal_with_a_redex_is_built_with_its_own_span(src):
    e = parse_expr(src)
    out = fg_interp.fg_eval(parse_program(BOXES).table, e, 10)
    assert out.steps == 1 and print_expr(out.value) == src.replace(".id()", "")
    assert out.value is not e and out.value.span is e.span
    assert [a is b for a, b in zip(out.value.args, e.args)] == \
        [type(a) is fg.StructLit for a in e.args]


SHADOWS = """
package main
type A struct {}
type B struct {}
func (x A) one(x B) A { return x }
func (x A) two(y B, y A) B { return y }
func main() { _ = A{} }
"""


def test_receiver_and_earlier_parameters_shadow_as_substitution_does():
    """Ill-formed, so only the machine sees it: the receiver shadows a
    parameter of its name, and an earlier parameter a later one, as
    substituting them one by one would."""
    decls = parse_program(SHADOWS).table
    assert print_expr(eval_src(decls, "A{}.one(B{})").value) == "A{}"
    assert print_expr(eval_src(decls, "A{}.two(B{}, A{})").value) == "B{}"
