"""Bounded value relation and the differential runner."""

from pathlib import Path

import pytest

from fgdict import fg_ast as fg, fg_interp, tl_ast as tl, tl_interp
from fgdict.fg_parser import parse_program
from fgdict.gen import GenConfig, gen_program
from fgdict.relate import (
    AGREE, BOTH_STUCK, BUDGET, DISAGREE, diff_run, harvest_related,
    methods_related, monotonicity_violations, program_hash, values_related,
    verdict_json,
)
from fgdict.translate import require_translation

EQUALITY = Path("corpus/equality.fg").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def eq_setup():
    prog = parse_program(EQUALITY, mode=fg.EXT)
    res = require_translation(prog)
    return prog, prog.table, res.tl_program.method_subst()


def test_relation_at_zero_is_total(eq_setup):
    _p, decls, mu = eq_setup
    assert values_related(decls, mu, "Int", fg.IntLit(1), tl.TLBool(False), 0)


def test_prim_relation(eq_setup):
    _p, decls, mu = eq_setup
    assert values_related(decls, mu, "int", fg.IntLit(3), tl.TLInt(3), 5)
    assert not values_related(decls, mu, "int", fg.IntLit(3), tl.TLInt(4), 5)
    assert values_related(decls, mu, "bool", fg.BoolLit(True), tl.TLBool(True), 5)


def test_struct_relation_compares_fields(eq_setup):
    _p, decls, mu = eq_setup
    v = fg.StructLit("Int", (fg.IntLit(7),))
    V = tl.CtorApp("K_Int", (tl.TLInt(7),))
    assert values_related(decls, mu, "Int", v, V, 5)
    assert not values_related(decls, mu, "Int", v,
                              tl.CtorApp("K_Int", (tl.TLInt(8),)), 5)


def test_iface_relation_requires_canonical_dictionary(eq_setup):
    _p, decls, mu = eq_setup
    v = fg.StructLit("Int", (fg.IntLit(7),))
    payload = tl.CtorApp("K_Int", (tl.TLInt(7),))
    good = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Int")))
    bad = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Pair")))
    assert values_related(decls, mu, "Eq", v, good, 5)
    assert not values_related(decls, mu, "Eq", v, bad, 5)
    # At index 1 the payload comparison happens at index 0 and is vacuous.
    wrong_payload = tl.CtorApp("K_Eq", (tl.CtorApp("K_Int", (tl.TLInt(9),)),
                                        tl.MethodVar("eq_Int")))
    assert values_related(decls, mu, "Eq", v, wrong_payload, 1)
    assert not values_related(decls, mu, "Eq", v, wrong_payload, 2)


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


def test_diff_both_stuck():
    prog = parse_program(Path("corpus/stuck/assert01.fg").read_text(encoding="utf-8"))
    v = diff_run(prog)
    assert v.kind == BOTH_STUCK
    assert v.fg_reason == fg_interp.ASSERT_FAILURE
    assert v.tl_reason == tl_interp.MATCH_FAILURE
    assert v.exit_code() == 0


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


def test_monotonicity_on_harvested_triples(eq_setup):
    _p, decls, mu = eq_setup
    payload = tl.CtorApp("K_Int", (tl.TLInt(7),))
    V = tl.CtorApp("K_Eq", (payload, tl.MethodVar("eq_Int")))
    v = fg.StructLit("Int", (fg.IntLit(7),))
    samples = harvest_related(decls, "Eq", v, V)
    assert monotonicity_violations(decls, mu, samples, kmax=64) == []


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
