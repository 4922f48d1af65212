"""Dictionary-passing translation: shapes, determinism, and coercion costs."""

import pytest

from fgdict import fg_ast as fg, tl_ast as tl, tl_interp
from fgdict.fg_parser import parse_program
from fgdict.relate import AGREE, diff_run
from fgdict.tl_ast import downcast_name, method_var_name, upcast_name
from fgdict.translate import Translator, require_translation, translate_program

EQUALITY = open("corpus/equality.fg").read()


@pytest.fixture(scope="module")
def equality():
    return parse_program(EQUALITY, mode=fg.EXT)


def test_mangled_names():
    assert method_var_name("eq", "Int") == "eq_Int"
    assert upcast_name("Int", "Eq") == "to_Eq_Int"
    assert upcast_name("Ord", "Eq") == "to_Eq_Ord"
    assert downcast_name("Eq", "Int") == "from_Eq_Int"
    assert downcast_name("Ord", "Int") == "from_Ord_Int"


def test_method_bindings_exist(equality):
    res = require_translation(equality)
    names = [n for n, _lam in res.tl_program.bindings]
    assert names == ["eq_Int", "eq_Pair", "lt_Int"]


def test_hoisted_helper_bindings(equality):
    res = require_translation(equality, hoist_helpers=True)
    names = {n for n, _lam in res.tl_program.bindings}
    assert {"to_Eq_Int", "to_Eq_Pair", "to_Eq_Ord",
            "from_Eq_Int", "from_Eq_Pair", "from_Ord_Int"} <= names


def test_struct_upcast_shape(equality):
    tr = Translator(equality.table)
    lam = tr.build_upcast("Int", "Eq")
    # \x -> K_Eq x eq_Int
    assert isinstance(lam, tl.Lam)
    assert lam.body == tl.CtorApp("K_Eq", (tl.TLVar(lam.var),
                                           tl.MethodVar("eq_Int")))


def test_iface_upcast_is_a_permutation(equality):
    tr = Translator(equality.table)
    lam = tr.build_upcast("Ord", "Eq")
    case = lam.body
    assert isinstance(case, tl.Case)
    (clause,) = case.clauses
    assert clause.pat.ctor == "K_Ord" and len(clause.pat.vars) == 3
    x, eq_slot, _lt_slot = clause.pat.vars
    assert clause.body == tl.CtorApp("K_Eq", (tl.TLVar(x), tl.TLVar(eq_slot)))


def test_downcast_to_struct_shape(equality):
    tr = Translator(equality.table)
    lam = tr.build_downcast("Eq", "Int")
    outer = lam.body
    assert isinstance(outer, tl.Case)
    (clause,) = outer.clauses
    assert clause.pat.ctor == "K_Eq"
    inner = clause.body
    assert isinstance(inner, tl.Case)
    assert inner.clauses[0].pat.ctor == "K_Int"


def test_downcast_to_iface_lists_implementing_structs(equality):
    tr = Translator(equality.table)
    lam = tr.build_downcast("Eq", "Ord")
    (clause,) = lam.body.clauses
    inner = clause.body
    # Only Int implements Ord (eq and lt).
    assert [c.pat.ctor for c in inner.clauses] == ["K_Int"]


def test_downcast_to_unimplemented_iface_warns():
    prog = parse_program("""
    package main
    type A struct {}
    type I interface { m() A }
    type K interface { q() A }
    type Box struct { v I }
    func (this A) m() A { return A{} }
    func main() { _ = Box{A{}}.v.(K) }
    """)
    res = translate_program(prog)
    assert res.ok
    assert res.warnings


def test_translation_is_deterministic(equality):
    a = tl.print_program(require_translation(equality).tl_program)
    b = tl.print_program(require_translation(equality).tl_program)
    assert a == b
    c = tl.print_program(require_translation(equality, hoist_helpers=True).tl_program)
    assert tl.print_program(
        require_translation(equality, hoist_helpers=True).tl_program) == c


def test_hoisting_preserves_behavior(equality):
    plain = require_translation(equality)
    hoisted = require_translation(equality, hoist_helpers=True)
    a = tl_interp.run_program(plain.tl_program, 10 ** 5)
    b = tl_interp.run_program(hoisted.tl_program, 10 ** 5)
    assert a.value == b.value


def test_output_passes_structural_validation(equality):
    for hoist in (False, True):
        res = require_translation(equality, hoist_helpers=hoist)
        assert tl.validate_program(res.tl_program) == []


def test_struct_upcast_costs_one_step(equality):
    tr = Translator(equality.table)
    v = tl.CtorApp("K_Int", (tl.TLInt(5),))
    e = tl.App(tr.build_upcast("Int", "Eq"), v)
    out = tl_interp.tl_eval({}, e, 10)
    assert out.steps == 1
    assert out.value == tl.CtorApp("K_Eq", (v, tl.MethodVar("eq_Int")))


def test_iface_upcast_costs_two_steps(equality):
    tr = Translator(equality.table)
    payload = tl.CtorApp("K_Int", (tl.TLInt(5),))
    ord_v = tl.CtorApp("K_Ord", (payload, tl.MethodVar("eq_Int"),
                                 tl.MethodVar("lt_Int")))
    out = tl_interp.tl_eval({}, tl.App(tr.build_upcast("Ord", "Eq"), ord_v), 10)
    assert out.steps == 2  # one lambda, one pattern match
    assert out.value == tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Int")))


def test_successful_destructor_costs_three_steps(equality):
    tr = Translator(equality.table)
    payload = tl.CtorApp("K_Int", (tl.TLInt(5),))
    eq_v = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Int")))
    out = tl_interp.tl_eval({}, tl.App(tr.build_downcast("Eq", "Int"), eq_v), 10)
    # One extra lambda and two extra pattern match applications.
    assert out.steps == 3
    assert out.value == payload


def test_iface_target_destructor_also_costs_three_steps(equality):
    tr = Translator(equality.table)
    payload = tl.CtorApp("K_Int", (tl.TLInt(5),))
    eq_v = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Int")))
    out = tl_interp.tl_eval({}, tl.App(tr.build_downcast("Eq", "Ord"), eq_v), 10)
    assert out.steps == 3
    assert out.value == tl.CtorApp("K_Ord", (payload, tl.MethodVar("eq_Int"),
                                             tl.MethodVar("lt_Int")))


def test_failing_destructor_sticks(equality):
    tr = Translator(equality.table)
    payload = tl.CtorApp("K_Pair", (tl.CtorApp("K_Eq", ()), tl.CtorApp("K_Eq", ())))
    eq_v = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Pair")))
    out = tl_interp.tl_eval({}, tl.App(tr.build_downcast("Eq", "Int"), eq_v), 10)
    assert isinstance(out, tl_interp.StuckOutcome)
    assert out.reason == tl_interp.MATCH_FAILURE


def test_rule_counts_cover_main_forms(equality):
    res = require_translation(equality)
    for rule in ("td-var", "td-struct", "td-access", "td-call-struct",
                 "td-call-iface", "td-sub", "td-assert",
                 "td-cons-struct-iface", "td-cons-iface-iface",
                 "td-destr-iface-struct", "td-method", "td-prog"):
        assert res.rule_counts.get(rule, 0) > 0, rule


def test_mangling_collision_detected():
    # Method names may contain underscores.  Distinct (method, receiver)
    # pairs must still get distinct method variables, so the program is
    # accepted and both sides agree.
    prog = parse_program("""
    package main
    type A struct {}
    type X_Y struct {}
    type Y struct {}
    func (this X_Y) m() A { return A{} }
    func (this Y) m_X() A { return A{} }
    func main() { _ = Y{}.m_X() }
    """)
    res = translate_program(prog)
    assert res.ok
    names = [n for n, _lam in res.tl_program.bindings]
    assert len(set(names)) == len(names) == 2
    assert diff_run(prog).kind == AGREE
