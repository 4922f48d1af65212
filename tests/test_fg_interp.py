"""Small-step source-language interpreter."""

import pytest

from fgdict import fg_ast as fg, fg_interp
from fgdict.fg_parser import parse_expr, parse_program, print_expr

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
    assert isinstance(fg_interp.fg_step(decls, parse_expr("Pair{A{}, A{}}")),
                      fg_interp.AlreadyValue)


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
