"""The value relation and the differential runner."""

from dataclasses import replace
from pathlib import Path

import pytest

from fgdict import fg_ast as fg, fg_interp, tl_ast as tl, tl_interp
from fgdict.fg_parser import parse_program
from fgdict.gen import GenConfig, gen_program
from fgdict.relate import (
    AGREE, BOTH_STUCK, BUDGET, DISAGREE, diff_run, program_hash, values_related, verdict_json,
)
from fgdict.translate import require_translation
from helpers import deepest_leaf_changed, harvest_related, methods_related

EQUALITY = Path("corpus/equality.fg").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def eq_setup():
    prog = parse_program(EQUALITY, mode=fg.EXT)
    res = require_translation(prog)
    return prog, prog.table, res.tl_program.method_subst()


def test_prim_relation(eq_setup):
    _p, decls, mu = eq_setup
    assert values_related(decls, mu, "int", fg.IntLit(3), tl.TLInt(3))
    assert not values_related(decls, mu, "int", fg.IntLit(3), tl.TLInt(4))
    assert values_related(decls, mu, "bool", fg.BoolLit(True), tl.TLBool(True))


def test_struct_relation_compares_fields(eq_setup):
    _p, decls, mu = eq_setup
    v = fg.StructLit("Int", (fg.IntLit(7),))
    V = tl.CtorApp("K_Int", (tl.TLInt(7),))
    assert values_related(decls, mu, "Int", v, V)
    assert not values_related(decls, mu, "Int", v, tl.CtorApp("K_Int", (tl.TLInt(8),)))


def test_iface_relation_requires_canonical_dictionary(eq_setup):
    _p, decls, mu = eq_setup
    v = fg.StructLit("Int", (fg.IntLit(7),))
    payload = tl.CtorApp("K_Int", (tl.TLInt(7),))
    good = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Int")))
    bad = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Pair")))
    assert values_related(decls, mu, "Eq", v, good)
    assert not values_related(decls, mu, "Eq", v, bad)
    # The payload is compared too, below the dictionary.
    wrong_payload = tl.CtorApp("K_Eq", (tl.CtorApp("K_Int", (tl.TLInt(9),)),
                                        tl.MethodVar("eq_Int")))
    assert not values_related(decls, mu, "Eq", v, wrong_payload)


def test_each_dictionary_is_compared_where_it_occurs(eq_setup):
    # (Eq, Int) occurs three times; only the second has a wrong slot, one
    # interface level below the first.
    _p, decls, mu = eq_setup

    def eq(payload, method):
        return tl.CtorApp("K_Eq", (payload, tl.MethodVar(method)))

    def pair(left, right):
        return tl.CtorApp("K_Pair", (left, right))

    ints = [tl.CtorApp("K_Int", (tl.TLInt(n),)) for n in (1, 2, 3)]
    v = fg.StructLit("Pair", (fg.StructLit("Int", (fg.IntLit(1),)), fg.StructLit("Pair", (
        fg.StructLit("Int", (fg.IntLit(2),)), fg.StructLit("Int", (fg.IntLit(3),))))))
    good = pair(eq(ints[0], "eq_Int"),
                eq(pair(eq(ints[1], "eq_Int"), eq(ints[2], "eq_Int")), "eq_Pair"))
    bad = pair(eq(ints[0], "eq_Int"),
               eq(pair(eq(ints[1], "eq_Pair"), eq(ints[2], "eq_Int")), "eq_Pair"))
    assert values_related(decls, mu, "Pair", v, good)
    assert not values_related(decls, mu, "Pair", v, bad)


def test_methods_related(eq_setup):
    prog, decls, _mu = eq_setup
    res = require_translation(prog)
    assert methods_related(decls, res.tl_program)
    # Tampering with one binding breaks it.
    (n0, lam0), *rest = res.tl_program.bindings
    tampered = tl.TLProgram(((n0, tl.Lam("x", tl.TLVar("x"))), *rest),
                            res.tl_program.main)
    assert not methods_related(decls, tampered)


def test_diff_agrees_on_equality(eq_setup):
    prog, _d, _mu = eq_setup
    v = diff_run(prog)
    assert v.kind == AGREE
    assert v.main_type == "bool"
    assert v.exit_code() == 0


ASSERT01 = Path("corpus/stuck/assert01.fg").read_text(encoding="utf-8")


def test_diff_both_stuck():
    v = diff_run(parse_program(ASSERT01))
    assert v.kind == BOTH_STUCK
    assert v.fg_reason == fg_interp.ASSERT_FAILURE
    assert v.tl_reason == tl_interp.MATCH_FAILURE
    assert v.exit_code() == 0


def _tl_stuck_as(monkeypatch, out):
    """Break the TL side: every run gets stuck as `out`, at the real run's
    step count."""
    real = tl_interp.tl_eval
    monkeypatch.setattr(tl_interp, "tl_eval", lambda mu, e, fuel, trace=None: replace(
        out, steps=real(mu, e, fuel).steps))


def test_both_stuck_on_other_structs_disagrees(monkeypatch):
    # FG's assertion fails on the A in the box; TL's match fails on Box.
    _tl_stuck_as(monkeypatch, tl_interp.StuckOutcome(
        tl_interp.MATCH_FAILURE, "no clause matches K_Box", 0, "Box"))
    v = diff_run(parse_program(ASSERT01))
    assert (v.fg_reason, v.tl_reason) == (fg_interp.ASSERT_FAILURE, tl_interp.MATCH_FAILURE)
    assert (v.kind, v.detail) == (DISAGREE, "both sides stuck: fg on A, tl on Box")
    assert v.exit_code() == 2


def test_both_stuck_on_a_pattern_arity_mismatch_disagrees(monkeypatch):
    # A match that fails on arity names no struct.
    arity = tl_interp.tl_eval({}, tl.parse_expr("case K_A of { K_A x -> K_A }"), 10)
    assert arity == tl_interp.StuckOutcome(
        tl_interp.MATCH_FAILURE, "pattern arity mismatch for K_A", 0, None)
    _tl_stuck_as(monkeypatch, arity)
    v = diff_run(parse_program(ASSERT01))
    assert (v.fg_reason, v.tl_reason) == (fg_interp.ASSERT_FAILURE, tl_interp.MATCH_FAILURE)
    assert (v.kind, v.detail) == (DISAGREE, "both sides stuck: fg on A, tl on None")


UNSOUND_CALL = """
package main
type I interface { m() A }
type A struct {}
type B struct {}
func (this A) m() A { return this }
func (this A) id(x I) A { return x.m() }
func main() { _ = A{}.id(B{}) }
"""


def test_stuck_pair_other_than_assert_and_match_disagrees(monkeypatch):
    # With a checker that takes every type for a subtype of every other, B{}
    # is passed as an I that it does not implement, and both sides get stuck
    # on the missing method.
    monkeypatch.setattr(fg, "is_subtype", lambda decls, t, u: True)
    v = diff_run(parse_program(UNSOUND_CALL))
    assert v.kind == DISAGREE
    assert (v.fg_reason, v.tl_reason) == (fg_interp.NO_METHOD, tl_interp.UNBOUND_METHOD)
    assert v.detail == "both sides stuck: fg no-method, tl unbound-method"
    assert v.exit_code() == 2


PAIR = """
package main
type A struct {}
type B struct {}
func main() { _ = A{} }
"""


def _fg_ends_in(monkeypatch, out):
    """Break the FG side: every run ends in `out`."""
    monkeypatch.setattr(fg_interp, "fg_eval", lambda decls, e, fuel, trace=None: out)


def test_unrelated_values_disagree(monkeypatch):
    _fg_ends_in(monkeypatch, fg_interp.Value(fg.StructLit("B", ()), 0))
    prog = parse_program(PAIR)
    v = diff_run(prog)
    assert (v.kind, v.detail) == (DISAGREE, "values unrelated at type A")
    assert (v.fg_value, v.tl_value) == (fg.StructLit("B", ()), tl.CtorApp("K_A", ()))
    assert v.exit_code() == 2
    rec = verdict_json(prog, v, 10, 5)
    assert (rec["verdict"], rec["detail"]) == (DISAGREE, "values unrelated at type A")


def test_the_whole_numeral_is_compared(monkeypatch):
    # add80's value nests 161 interface values; only its innermost K_Z is
    # changed, and the relation fuel bounds nothing.
    real = tl_interp.tl_eval

    def broken(mu, e, fuel, trace=None):
        out = real(mu, e, fuel)
        return tl_interp.Value(deepest_leaf_changed(out.value), out.steps)

    prog = parse_program(Path("bench/ladder/add80.fg").read_text(encoding="utf-8"))
    assert diff_run(prog).kind == AGREE
    monkeypatch.setattr(tl_interp, "tl_eval", broken)
    for v in (diff_run(prog), diff_run(prog, rel_fuel=0)):
        assert (v.kind, v.detail) == (DISAGREE, "values unrelated at type Nat")
        assert tl.print_expr(v.tl_value).count("K_Zx") == 1


@pytest.mark.parametrize("side", ["FG", "TL"])
def test_one_side_stuck_disagrees(monkeypatch, side):
    if side == "FG":
        _fg_ends_in(monkeypatch, fg_interp.StuckOutcome(fg_interp.NO_METHOD, "broken", 0))
        reasons = (fg_interp.NO_METHOD, None)
    else:
        out = tl_interp.StuckOutcome(tl_interp.MATCH_FAILURE, "broken", 0)
        monkeypatch.setattr(tl_interp, "tl_eval", lambda mu, e, fuel, trace=None: out)
        reasons = (None, tl_interp.MATCH_FAILURE)
    v = diff_run(parse_program(PAIR))
    assert (v.kind, v.detail) == (DISAGREE, f"{side} side stuck ({reasons[0] or reasons[1]}: "
                                            "broken), other side produced a value")
    assert (v.fg_reason, v.tl_reason) == reasons
    assert v.exit_code() == 2


def test_diff_budget():
    prog = parse_program("""
    package main
    type A struct {}
    func (this A) loop() A { return this.loop() }
    func main() { _ = A{}.loop() }
    """)
    v = diff_run(prog, fuel=50)
    assert v.kind == BUDGET
    assert v.side == "both"
    assert v.exit_code() == 3


def test_harvest_walks_structure(eq_setup):
    prog, decls, _mu = eq_setup
    res = require_translation(prog)
    fg_out = fg_interp.fg_eval(decls, prog.main, 10 ** 5)
    tl_out = tl_interp.run_program(res.tl_program, 10 ** 5)
    triples = harvest_related(decls, "bool", fg_out.value, tl_out.value)
    assert ("bool", fg_out.value, tl_out.value) in triples


def test_harvest_descends_into_interfaces(eq_setup):
    _p, decls, _mu = eq_setup
    payload = tl.CtorApp("K_Int", (tl.TLInt(7),))
    V = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Int")))
    v = fg.StructLit("Int", (fg.IntLit(7),))
    triples = harvest_related(decls, "Eq", v, V)
    types = [t for t, _v, _V in triples]
    assert types == ["Eq", "Int", "int"]


def test_program_hash_is_stable(eq_setup):
    prog, _d, _mu = eq_setup
    assert program_hash(prog) == program_hash(prog)
    other = gen_program(GenConfig(seed=1))
    assert program_hash(prog) != program_hash(other)


def test_verdict_json_schema(eq_setup):
    prog, _d, _mu = eq_setup
    v = diff_run(prog)
    rec = verdict_json(prog, v, 10 ** 5, 64, seed=7)
    assert rec["v"] == 1
    assert rec["verdict"] == AGREE
    assert rec["seed"] == 7
    assert rec["fg-steps"] >= 0 and rec["tl-steps"] >= 0


def test_no_disagreement_on_small_fuzz():
    for seed in range(100):
        v = diff_run(gen_program(GenConfig(seed=seed)))
        assert v.kind != DISAGREE, seed
