"""Dictionary-passing translation: shapes, determinism, and coercion costs."""

import glob
import hashlib
import json
from pathlib import Path

import pytest

from fgdict import fg_ast as fg, fg_interp, tl_ast as tl, tl_interp
from fgdict.fg_parser import parse_program
from fgdict.gen import GenConfig, gen_program
from fgdict.outcome import Value
from fgdict.relate import AGREE, BOTH_STUCK, DEFAULT_EVAL_FUEL, diff_run
from fgdict.tl_ast import downcast_name, method_var_name, upcast_name
from fgdict.translate import Translator, require_translation, translate_program
from helpers import one_step_reductions, sample_programs

EQUALITY = Path("corpus/equality.fg").read_text(encoding="utf-8")


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


def test_downcast_to_unimplemented_iface_sticks():
    # No struct implements K, so the downcast's inner case has no clauses.
    prog = parse_program("""
    package main
    type A struct {}
    type I interface { m() A }
    type K interface { q() A }
    type Box struct { v I }
    func (this A) m() A { return A{} }
    func main() { _ = Box{A{}}.v.(K) }
    """)
    assert translate_program(prog).ok
    v = diff_run(prog)
    assert (v.kind, v.fg_reason, v.tl_reason) == (
        BOTH_STUCK, fg_interp.ASSERT_FAILURE, tl_interp.MATCH_FAILURE)
    assert (v.fg_steps, v.tl_steps) == (1, 4)


def test_helpers_are_built_once_per_program(equality):
    tr = Translator(equality.table)
    assert tr.build_upcast("Int", "Eq") is tr.build_upcast("Int", "Eq")
    assert tr.build_downcast("Eq", "Int") is tr.build_downcast("Eq", "Int")
    assert tr.counts == {"td-cons-struct-iface": 1, "td-destr-iface-struct": 1}
    progs = [equality] + [gen_program(GenConfig(seed=s, mode=m))
                          for s in range(40) for m in (fg.CORE, fg.EXT)]
    reused = 0
    for prog in progs:
        inline = translate_program(prog)
        hoisted = translate_program(prog, hoist_helpers=True)
        assert inline.rule_counts == hoisted.rule_counts
        if not inline.ok:
            continue
        helpers = len(hoisted.tl_program.bindings) - len(inline.tl_program.bindings)
        built = sum(n for rule, n in inline.rule_counts.items()
                    if rule.startswith(("td-cons-", "td-destr-")))
        assert built == helpers
        uses = inline.rule_counts.get("td-sub", 0) + inline.rule_counts.get("td-assert", 0)
        reused += uses > helpers
    assert reused > 0  # some program uses a helper more than once


def _rules_and_outcome(prog, helpers=frozenset()):
    """The rule of each step of the TL program `prog`, and how it ends.  A
    `tl-method` step whose control term is one of the lambdas `helpers`
    (by identity) is recorded as "unfold"."""
    rules = []

    def on_step(_n, rule, state):
        rules.append("unfold" if rule == "tl-method" and id(state[1]) in helpers else rule)

    return rules, tl_interp._run(prog.method_subst(), prog.main, DEFAULT_EVAL_FUEL, on_step)


def test_hoisted_translation_runs_as_the_inline_one():
    """On the corpus, the ladder and generated programs, the program with
    hoisted helpers runs as the inline one does, but for the unfolding of
    each helper: a `tl-method` step to the lambda of a hoisted helper
    binding, one the inline program does not have (a method `to` of `X` is
    the method variable `to_X`, so names are not read for a prefix).
    Without those steps the hoisted run takes the inline run's rules in
    order, and it ends as the inline run does: the same outcome kind, and
    the same printed value or stuck reason.  So the hoisted form takes as
    many steps as the inline one plus its helper unfoldings."""
    kinds = set()
    unfoldings = 0
    for i, prog in enumerate(sample_programs()):
        inline, hoisted = (translate_program(prog, hoist_helpers=h).tl_program
                           for h in (False, True))
        names = {n for n, _lam in inline.bindings}
        helpers = {id(lam) for n, lam in hoisted.bindings if n not in names}
        inline_rules, inline_end = _rules_and_outcome(inline)
        hoisted_rules, hoisted_end = _rules_and_outcome(hoisted, helpers)
        unfolded = hoisted_rules.count("unfold")
        assert [r for r in hoisted_rules if r != "unfold"] == inline_rules, i
        assert type(inline_end) is type(hoisted_end), i
        if type(inline_end) is Value:
            assert tl.print_expr(inline_end.value) == tl.print_expr(hoisted_end.value), i
        else:
            assert inline_end.reason == hoisted_end.reason, i
        assert hoisted_end.steps == inline_end.steps + unfolded, i
        kinds.add(type(inline_end).__name__)
        unfoldings += unfolded
    assert kinds == {"Value", "StuckOutcome"}
    assert unfoldings > 0


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


REJECT_DECLS = """
package main
type B struct {}
type A struct { b B }
type I interface { m() B }
func (this A) m() B { return this.b }
func (this A) i() I { return this }
"""

# (id, mode, extra declarations, main, expected diagnostic code)
REJECTIONS = [
    ("unknown-var", fg.CORE, "", "y", "unknown-var"),
    ("literal-of-interface", fg.CORE, "", "I{}", "unknown-type"),
    ("assert-to-primitive", fg.EXT, "", "A{B{}}.i().(int)", "unknown-type"),
    ("struct-literal-arity", fg.CORE, "", "A{}", "arity-mismatch"),
    ("call-arity", fg.CORE, "", "A{B{}}.m(B{})", "arity-mismatch"),
    ("missing-field", fg.CORE, "", "A{B{}}.c", "unknown-field"),
    ("field-of-interface", fg.CORE, "", "A{B{}}.i().b", "not-a-struct"),
    ("missing-struct-method", fg.CORE, "", "A{B{}}.n()", "unknown-method"),
    ("missing-interface-method", fg.CORE, "", "A{B{}}.i().n()", "unknown-method"),
    ("method-on-int", fg.EXT, "", "(1).m()", "unknown-method"),
    ("duplicate-type", fg.CORE, "type A struct {}", "B{}", "dup-type"),
    ("declare-primitive", fg.EXT, "type int struct {}", "B{}", "dup-type"),
    ("duplicate-param", fg.CORE,
     "func (this A) p(x B, x B) B { return x }", "B{}", "dup-param"),
    ("param-shadows-receiver", fg.CORE,
     "func (this A) p(this B) B { return this }", "B{}", "dup-param"),
    # Two errors each: the order the checker types and coerces
    # subexpressions in decides which one is reported.
    ("receiver-before-arguments", fg.CORE, "", "A{B{}}.nope(x)", "unknown-method"),
    ("field-coerced-before-next", fg.CORE,
     "type F struct { a A; c A }", "F{B{}, y}", "not-a-subtype"),
    ("operand-coerced-before-next", fg.EXT, "", "true == x", "prim-op-type"),
]


@pytest.mark.parametrize("mode,decls,main,code", [r[1:] for r in REJECTIONS],
                         ids=[r[0] for r in REJECTIONS])
def test_checker_rejects(mode, decls, main, code):
    prog = parse_program(f"{REJECT_DECLS}{decls}\nfunc main() {{ _ = {main} }}\n",
                         mode=mode)
    res = translate_program(prog)
    assert res.tl_program is None
    assert [d.code for d in res.diagnostics] == [code]


# Defect (g): `var x T = e` in main is desugared by substitution and T is
# dropped, so the annotation is never checked and never used to type the
# body.  Both tests fail until the bindings are typed under their declared
# types; see ROADMAP.
VAR_DECLS = """package main
type A struct {}
type B struct {}
type F struct { b bool }
type I interface { m() A }
func (this A) m() A { return this }
"""


def _with_vars(body):
    return parse_program(f"{VAR_DECLS}func main() {{\n{body}\n}}\n", mode=fg.EXT)


@pytest.mark.xfail(strict=True, reason="defect (g): var annotations are dropped")
def test_var_annotation_is_checked():
    for body in ("var x A = B{}\n_ = x",
                 "var y int = true\n_ = F{y}",
                 "var z Nope = A{}\n_ = z"):
        assert not translate_program(_with_vars(body)).ok, body


@pytest.mark.xfail(strict=True, reason="defect (g): var annotations are dropped")
def test_var_annotation_types_the_body():
    assert translate_program(_with_vars("var x I = A{}\n_ = x.(A)")).ok


# sha256 over `_translation_records`, recorded before the translator kept
# its work on an explicit stack.
TRANSLATION_DIGEST = "9a215db51008d24de91c7a19d62337230de95467a1a0a640fbb6c439db363a95"


def _translation_programs():
    """The corpus, the ladder, generated programs in both modes, and every
    one-step reduction the shrinker may try, well-typed or not
    (`helpers.one_step_reductions`), of the first 100 of each mode."""
    with open("corpus/manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)["files"]
    for entry in manifest:
        path = "corpus/" + entry["path"]
        with open(path, encoding="utf-8") as f:
            yield path, parse_program(f.read(), mode=entry["mode"], filename=path)
    for path in sorted(glob.glob("bench/ladder/*.fg")):
        with open(path, encoding="utf-8") as f:
            yield path, parse_program(f.read(), filename=path)
    for mode in (fg.CORE, fg.EXT):
        for seed in range(300):
            prog = gen_program(GenConfig(seed=seed, mode=mode))
            yield f"gen-{mode}-{seed}", prog
            if seed < 100:
                for i, cand in enumerate(one_step_reductions(prog)):
                    yield f"gen-{mode}-{seed}-cand{i}", cand


def _translation_records():
    for name, prog in _translation_programs():
        for hoist in (False, True):
            res = translate_program(prog, hoist_helpers=hoist)
            if res.diagnostics:
                rec = repr([(d.code, d.message, d.span) for d in res.diagnostics])
            else:
                rec = f"{res.main_type} {res.rule_counts!r}\n" + \
                    tl.print_program(res.tl_program)
            yield f"{name} {hoist}\n{rec}\n"


def test_translation_is_pinned():
    h = hashlib.sha256()
    for rec in _translation_records():
        h.update(rec.encode())
    assert h.hexdigest() == TRANSLATION_DIGEST
