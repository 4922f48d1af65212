"""TL spellings of FG names: programs whose names once clashed in TL, and
generated programs renamed with names chosen to clash."""

import random
from dataclasses import replace

import pytest

from fgdict import fg_ast as fg, fg_interp, tl_ast as tl, tl_interp
from fgdict.cli import EXIT_DIAGNOSTICS, EXIT_OK, cli_dispatch
from fgdict.fg_parser import parse_program
from fgdict.gen import GenConfig, gen_program
from fgdict.relate import (
    AGREE, DEFAULT_EVAL_FUEL, DEFAULT_RELATION_FUEL, diff_run, values_related,
)
from fgdict.translate import require_translation, translate_program

# Method variables a_b_C twice under `{m}_{T}` mangling.
UNDERSCORES = """
package main
type A struct {}
type C struct {}
type b_C struct {}
func (this C) a_b() A { return A{} }
func (this b_C) a() A { return A{} }
func main() { _ = b_C{}.a() }
"""

# A user method named like the hoisted upcast helper from Int to Eq.
HELPER_LOOKALIKE = """
package main
type Eq interface { eq(that Eq) bool }
type Int struct { val int }
func (this Int) eq(that Eq) bool { return this.val == that.(Int).val }
func (this Int) toEq() Eq { return this }
func main() { _ = Int{1}.toEq().eq(Int{1}) }
"""

DUP_FIELD = """
package main
type A struct {}
type P struct { x A; x A }
func main() { _ = P{A{}, A{}} }
"""

# A method named K, and parameters spelled like TL keywords and constructors.
TL_LOOKALIKES = """
package main
type A struct {}
type B struct { x A }
type C struct { y B }
type P struct { a A; b B; c C; d A; e B; f C }
func (this A) K(in A, of B, case C, true A, Tup1 B, K_A C) P {
  return P{true, Tup1, K_A, in, of, case}
}
func main() { _ = A{}.K(A{}, B{A{}}, C{B{A{}}}, A{}, B{A{}}, C{B{A{}}}) }
"""

# A parameter spelled like the method variable of B.g, in scope of a call to it.
PARAM_LOOKALIKE = """
package main
type A struct {}
type B struct {}
func (this B) g() A { return A{} }
func (this B) h(g_B B) A { return g_B.g() }
func main() { _ = B{}.h(B{}) }
"""


def _run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_underscored_names_do_not_collide():
    prog = parse_program(UNDERSCORES)
    res = require_translation(prog)
    names = [n for n, _lam in res.tl_program.bindings]
    assert len(set(names)) == len(names) == 2
    assert diff_run(prog).kind == AGREE


def test_user_method_named_like_a_helper():
    prog = parse_program(HELPER_LOOKALIKE, mode=fg.EXT)
    res = require_translation(prog, hoist_helpers=True)
    names = [n for n, _lam in res.tl_program.bindings]
    assert len(set(names)) == len(names)
    assert tl.validate_program(res.tl_program) == []
    fg_out = fg_interp.fg_eval(prog.table, prog.main, DEFAULT_EVAL_FUEL)
    tl_out = tl_interp.run_program(res.tl_program, DEFAULT_EVAL_FUEL)
    assert values_related(prog.table, res.tl_program.method_subst(), res.main_type,
                          fg_out.value, tl_out.value, DEFAULT_RELATION_FUEL)


def test_diff_rejects_ill_formed_program(tmp_path, capsys):
    f = tmp_path / "dup.fg"
    f.write_text(DUP_FIELD)
    code, out, err = _run(capsys, "diff", str(f))
    assert code == EXIT_DIAGNOSTICS
    assert out == ""
    assert "fg2-dup-field" in err


@pytest.mark.parametrize("src", [TL_LOOKALIKES, PARAM_LOOKALIKE],
                         ids=["tl-lookalikes", "param-lookalike"])
def test_compiled_program_reloads_to_the_related_value(src, tmp_path, capsys):
    f, out_tl = tmp_path / "p.fg", tmp_path / "p.tl"
    f.write_text(src)
    verdict = diff_run(parse_program(src))
    assert verdict.kind == AGREE
    assert _run(capsys, "compile", str(f), "-o", str(out_tl))[0] == EXIT_OK
    loaded = tl.parse_program(out_tl.read_text())
    assert tl.validate_program(loaded) == []
    code, out, _err = _run(capsys, "run-tl", str(out_tl))
    assert code == EXIT_OK
    assert out.strip() == tl.print_expr(verdict.tl_value)


# ---------------------------------------------------------------------------
# Adversarial renaming

POOL = ("a", "b", "a_b", "b_a", "a__b", "x_", "S0", "I0", "to_I0", "from_I0",
        "toS0", "fromI0", "K", "K_x", "KK", "Tup0", "Tup2", "in", "of", "case",
        "let")


def rename(prog, seed):
    """`prog` with every struct, interface, method, field, receiver and
    parameter renamed injectively to a name drawn from POOL.  Method names
    are also drawn from `to_I`/`from_I` for each renamed interface I, the
    spellings that would meet helper names if `_` were not escaped."""
    types, ifaces, methods, fields, variables = set(), set(), set(), set(), set()

    def see_sig(sig):
        variables.update(x for x, _t in sig.params)

    for d in prog.decls:
        if isinstance(d, fg.MethodDecl):
            methods.add(d.name)
            variables.add(d.recv_var)
            see_sig(d.sig)
            continue
        types.add(d.name)
        if isinstance(d.literal, fg.StructType):
            fields.update(d.literal.field_names)
            continue
        ifaces.add(d.name)
        for s in d.literal.specs:
            methods.add(s.name)
            see_sig(s.sig)
    rng = random.Random(seed)

    def draw(names, pool):
        return dict(zip(sorted(names), rng.sample(pool, len(names))))

    ty, fld, var = draw(types, POOL), draw(fields, POOL), draw(variables, POOL)
    lookalikes = tuple(f"{p}_{ty[i]}" for i in sorted(ifaces) for p in ("to", "from"))
    meth = draw(methods, tuple(dict.fromkeys(POOL + lookalikes)))

    def sig(s):
        return fg.MethodSig(tuple((var[x], ty.get(t, t)) for x, t in s.params),
                            ty.get(s.ret, s.ret))

    def expr(e):
        if isinstance(e, fg.Var):
            return replace(e, name=var[e.name])
        if isinstance(e, fg.StructLit):
            return replace(e, type_name=ty[e.type_name], args=tuple(map(expr, e.args)))
        if isinstance(e, fg.Select):
            return replace(e, recv=expr(e.recv), fld=fld[e.fld])
        if isinstance(e, fg.Call):
            return replace(e, recv=expr(e.recv), method=meth[e.method],
                           args=tuple(map(expr, e.args)))
        if isinstance(e, fg.Assert):
            return replace(e, expr=expr(e.expr), type_name=ty[e.type_name])
        if isinstance(e, fg.BinOp):
            return replace(e, left=expr(e.left), right=expr(e.right))
        return e

    decls = []
    for d in prog.decls:
        if isinstance(d, fg.MethodDecl):
            d = fg.MethodDecl(var[d.recv_var], ty[d.recv_type], meth[d.name],
                              sig(d.sig), expr(d.body))
        elif isinstance(d.literal, fg.StructType):
            d = fg.TypeDecl(ty[d.name], fg.StructType(
                tuple((fld[f], ty.get(t, t)) for f, t in d.literal.fields)))
        else:
            d = fg.TypeDecl(ty[d.name], fg.InterfaceType(
                tuple(fg.MethodSpec(meth[s.name], sig(s.sig)) for s in d.literal.specs)))
        decls.append(d)
    return fg.Program(tuple(decls), expr(prog.main), prog.mode)


@pytest.mark.parametrize("mode", [fg.CORE, fg.EXT])
def test_adversarial_renaming_keeps_translation_and_verdict(mode):
    for seed in range(200):
        prog = gen_program(GenConfig(seed=seed, mode=mode))
        renamed = rename(prog, seed)
        for hoist in (False, True):
            res = translate_program(renamed, hoist_helpers=hoist)
            assert res.ok, (seed, res.diagnostics)
            out = res.tl_program
            assert tl.parse_program(tl.print_program(out)) == out, (seed, hoist)
            assert tl.validate_program(out) == [], (seed, hoist)
        want, got = diff_run(prog), diff_run(renamed)
        assert (got.kind, got.fg_steps, got.tl_steps) == \
            (want.kind, want.fg_steps, want.tl_steps), seed
