"""Target language: terms, printer/parser, and the evaluator."""

import glob
import hashlib
import json
import random
import time

import pytest

from fgdict import fg_ast as fg, tl_ast as tl, tl_interp
from fgdict.cli import EXIT_DIAGNOSTICS, EXIT_OK, cli_dispatch
from fgdict.diagnostics import FgError
from fgdict.fg_parser import parse_program as parse_fg
from fgdict.gen import GenConfig, gen_program
from fgdict.tl_ast import (
    App, Case, Clause, CtorApp, Lam, MethodVar, Pattern, TLBool, TLInt,
    TLPrim, TLVar,
)
from fgdict.translate import translate_program


def test_tuple_constructors():
    assert tl.make_tuple(()) == CtorApp("Tup0", ())
    assert tl.make_tuple((TLVar("x"),)) == CtorApp("Tup1", (TLVar("x"),))
    assert tl.tuple_arity("Tup7") == 7
    assert tl.tuple_arity("Tup01") is None
    for name in ("K_A", "Tup", "TupX", "K_Tup1", "tup1"):
        assert tl.tuple_arity(name) is None


def test_tuple_arity_reads_only_what_tuple_ctor_writes():
    assert [tl.tuple_arity(tl.tuple_ctor(k)) for k in (0, 1, 10, 100)] == [0, 1, 10, 100]
    for name in ("Tup00", "Tup007", "Tup\u0663", "Tup-1", "Tup 1"):
        assert tl.tuple_arity(name) is None


@pytest.mark.parametrize("prog, problems", [
    (tl.TLProgram((), CtorApp("Foo", (TLInt(1),))),
     ["main: Foo is not a constructor name"]),
    (tl.TLProgram((), Case(CtorApp("K_A", ()),
                           (Clause(Pattern("Tup01", ("x",)), TLVar("x")),
                            Clause(Pattern("Bar", ()), CtorApp("Tup00", ()))))),
     ["main: Tup01 is not a constructor name", "main: Bar is not a constructor name",
      "main: Tup00 is not a constructor name"]),
])
def test_validate_reports_names_the_reader_does_not_read_as_constructors(prog, problems):
    assert tl.validate_program(prog) == problems


def test_validate_is_linear_in_binder_nesting():
    n = 20000
    e = TLVar("x0")
    for i in reversed(range(n)):
        e = Lam(f"x{i}", e)
    start = time.perf_counter()
    assert tl.validate_program(tl.TLProgram((), e)) == []
    assert time.perf_counter() - start < 1.0


def test_duplicate_binding_is_reported_at_its_name():
    text = "let\n  f = \\x -> x;\n  f = \\y -> y\nin\nf 1"
    with pytest.raises(FgError) as ei:
        tl.parse_program(text, filename="dup.tl")
    assert [str(d) for d in ei.value.diagnostics] == \
        ["dup.tl:3:3: error: duplicate let binding f [dup-binding]"]


def test_reader_takes_any_depth():
    n = 20000
    for text in ("\\x -> " * n + "x", "(" * n + "1" + ",)" * n,
                 "case " * n + "K_A" + " of { K_A -> K_A }" * n):
        assert tl.print_expr(tl.parse_expr(text)) == text


def test_closure_chain_deeper_than_the_recursion_limit():
    n = 3000
    e = tl.parse_expr("(\\x -> \\y -> x) (" * n + "K_A" + ")" * n)
    out = tl_interp.tl_eval({}, e, 10 ** 5)
    assert out.steps == n
    assert tl.print_expr(out.value) == "\\y -> " * n + "K_A"


def test_print_parse_roundtrip_expr():
    e = Case(App(MethodVar("m_A"), CtorApp("K_A", (TLInt(1), TLBool(True)))),
             (Clause(Pattern("K_A", ("a", "b")), TLPrim("==", TLVar("a"), TLInt(0))),
              Clause(Pattern("Tup0", ()), TLBool(False))))
    text = tl.print_expr(e)
    assert tl.parse_expr(text, let_bound=("m_A",)) == e


def test_print_parse_roundtrip_program():
    prog = tl.TLProgram(
        (("m_A", Lam("this", Lam("_0", Case(TLVar("_0"),
            (Clause(Pattern("Tup1", ("x",)), TLVar("x")),))))),),
        App(App(MethodVar("m_A"), CtorApp("K_A", ())), tl.make_tuple((TLInt(3),))))
    assert tl.parse_program(tl.print_program(prog)) == prog


@pytest.mark.parametrize("text", [
    "(K_A 1) 2",
    "(" + ", ".join(["K_A"] * 40) + ")",
], ids=["ctor-app-in-function-position", "40-tuple"])
def test_print_parse_roundtrip_text(text):
    e = tl.parse_expr(text)
    assert tl.print_expr(e) == text
    assert tl.parse_expr(tl.print_expr(e)) == e


def test_a_parenthesised_constructor_takes_the_atoms_after_it():
    assert tl.parse_expr("(K_A) 1 x") == tl.parse_expr("K_A 1 x") == \
        CtorApp("K_A", (TLInt(1), TLVar("x")))
    assert tl.parse_expr("(Tup2) 1") == App(CtorApp("Tup2", ()), TLInt(1))


def test_pattern_lambda_sugar_parses():
    e = tl.parse_expr(r"\(x, y) -> x")
    assert isinstance(e, Lam)
    body = e.body
    assert isinstance(body, Case)
    assert body.clauses[0].pat.ctor == "Tup2"


# The same operator strings as in test_fg_parser.py, with the same shapes.
OPERATOR_SHAPES = [
    ("a || b && c", "(a || (b && c))"),
    ("a && b || c", "((a && b) || c)"),
    ("a || b || c", "((a || b) || c)"),
    ("a && b && c", "((a && b) && c)"),
    ("a == b && c < d", "((a == b) && (c < d))"),
    ("a < b || c == d && e", "((a < b) || ((c == d) && e))"),
    ("(a || b) && c", "((a || b) && c)"),
    ("a == (b == c)", "(a == (b == c))"),
]


def _shape(e):
    if isinstance(e, TLPrim):
        return f"({_shape(e.left)} {e.op} {_shape(e.right)})"
    return e.name


@pytest.mark.parametrize("text, shape", OPERATOR_SHAPES)
def test_operator_precedence(text, shape):
    e = tl.parse_expr(text)
    assert _shape(e) == shape
    assert tl.parse_expr(tl.print_expr(e)) == e


# Malformed texts, each with its message and line:column.
SYNTAX_ERRORS = [
    ("a == b == c", "trailing input, found '=='", "1:8"),
    ("a || b == c == d", "trailing input, found '=='", "1:13"),
    ("let\n  f = \\x -> x\nin\nf @", "unexpected character '@'", "4:3"),
    ("let\n  f = 1\nin\nf", "binding f must be a lambda, found 'in'", "3:1"),
    ("let f = \\x -> x; in f", "expected identifier, found 'in'", "1:18"),
    ("let\n  f = \\x -> x\n  g = \\y -> y\nin\nf", "expected 'in', found '='", "3:5"),
    ("(1, 2", "expected ')', found ''", "1:6"),
    ("\\x -> ", "expected expression, found ''", "1:7"),
    ("case x { }", "expected 'of', found '{'", "1:8"),
    ("case x of { K_A y -> y; z -> 1 }",
     "expected constructor pattern, got 'z', found '->'", "1:27"),
    ("\\(x, y -> x", "expected ')', found '->'", "1:8"),
    ("K_A 1) ", "trailing input, found ')'", "1:6"),
]


@pytest.mark.parametrize("text, message, position", SYNTAX_ERRORS)
def test_syntax_errors_have_positions(text, message, position):
    with pytest.raises(FgError) as ei:
        tl.parse_program(text, filename="t.tl")
    [d] = ei.value.diagnostics
    assert (d.message, str(d.span)) == (message, f"t.tl:{position}")


# Texts with `--` comments, each with the same text without them.
COMMENTED = [
    ("K_P 1 -- one\n2", "K_P 1 2"),
    ("let\n-- the identity\n  f = \\x -> x\nin\nf 1", "let f = \\x -> x in f 1"),
    ("let f = \\x -> x in f 1 -- no newline after this", "let f = \\x -> x in f 1"),
    ("\\x -->\n-> x", "\\x -> x"),
    ("K_A --", "K_A"),
]


@pytest.mark.parametrize("text, plain", COMMENTED,
                         ids=["between-tokens", "own-line", "end-of-input", "arrow", "bare"])
def test_comments_are_whitespace(text, plain):
    assert tl.parse_program(text) == tl.parse_program(plain)


@pytest.mark.parametrize("text, char, position", [
    ("a - b", "-", "1:3"), ("a > b", ">", "1:3"), ("\\x - > x", "-", "1:4"),
    ("a\n  -", "-", "2:3"),
])
def test_lone_dash_and_angle_are_unexpected(text, char, position):
    with pytest.raises(FgError) as ei:
        tl.parse_program(text, filename="t.tl")
    [d] = ei.value.diagnostics
    assert (d.message, str(d.span)) == (f"unexpected character {char!r}", f"t.tl:{position}")


def test_only_ascii_digits_are_digits():
    with pytest.raises(FgError) as ei:
        tl.parse_program("K_A \u0661\u0662", filename="t.tl")
    assert [str(d) for d in ei.value.diagnostics] == \
        ["t.tl:1:5: error: unexpected character '\u0661' [syntax]"]


@pytest.mark.parametrize("literal, ok", [
    (str(2 ** 63 - 1), True), ("0" * 30 + "7", True),
    (str(2 ** 63), False), ("9" * 5000, False),
], ids=["int-max", "leading-zeros", "int-max-plus-one", "5000-digits"])
def test_integer_literals_fit_in_go_int(literal, ok, tmp_path, capsys):
    f = tmp_path / "lit.tl"
    f.write_text(f"let f = \\x -> x in\nf {literal}\n", encoding="utf-8")
    code = cli_dispatch(["run-tl", str(f)])
    out, err = capsys.readouterr()
    if ok:
        assert (code, out, err) == (EXIT_OK, f"{int(literal)}\n", "-- 2 steps\n")
    else:
        assert (code, err) == \
            (EXIT_DIAGNOSTICS, f"{f}:2:3: error: integer literal out of range [syntax]\n")


def test_validate_catches_problems():
    # Unbound variable.
    assert tl.validate_program(tl.TLProgram((), TLVar("x")))
    # Constructor used at two different arities.
    bad = tl.TLProgram((), CtorApp("K_A", (CtorApp("K_A", ()),)))
    assert tl.validate_program(bad)
    # Non-linear pattern.
    bad = tl.TLProgram((), Case(CtorApp("K_A", (TLInt(1), TLInt(2))),
                                (Clause(Pattern("K_A", ("x", "x")), TLVar("x")),)))
    assert tl.validate_program(bad)
    # A clean program validates.
    ok = tl.TLProgram((), App(Lam("x", TLVar("x")), CtorApp("K_A", ())))
    assert tl.validate_program(ok) == []


def _k(ctor, *args):
    return CtorApp(ctor, args)


def test_validate_problem_lists_are_pinned():
    # Each program with the exact problem list, in order: structural
    # problems in pre-order, then sorted free variables, then sorted unbound
    # method variables, for main and then each binding.
    table = [
        (tl.TLProgram((), _k("Tup2", TLInt(1))),
         ["main: tuple constructor Tup2 used with arity 1"]),
        (tl.TLProgram((), _k("K_A", _k("K_A"))),
         ["main: constructor K_A used with arity 0 and 1"]),
        (tl.TLProgram((), Case(_k("K_A"), (Clause(Pattern("K_A", ()), TLInt(1)),
                                           Clause(Pattern("K_B", ()), TLInt(2)),
                                           Clause(Pattern("K_A", ()), TLInt(3))))),
         ["main: duplicate clause constructors ['K_A', 'K_B', 'K_A']"]),
        (tl.TLProgram((), Case(_k("K_A", TLInt(1), TLInt(2)),
                               (Clause(Pattern("K_A", ("x", "x")), TLVar("x")),))),
         ["main: non-linear pattern Pattern(ctor='K_A', vars=('x', 'x'))"]),
        # Bound by a lambda in one subterm, free in its sibling.
        (tl.TLProgram((), App(Lam("x", TLVar("x")), TLVar("x"))),
         ["main: free variable x"]),
        # A pattern variable used outside its clause.
        (tl.TLProgram((), Case(_k("K_A", TLInt(1)),
                               (Clause(Pattern("K_A", ("y",)), TLVar("y")),
                                Clause(Pattern("K_B", ()), TLVar("y"))))),
         ["main: free variable y"]),
        (tl.TLProgram((("f", Lam("x", App(MethodVar("g"), TLVar("x")))),),
                      App(MethodVar("f"), TLInt(0))),
         ["f: unbound method variable g"]),
        # All kinds at once; constructor arities carry over between bindings.
        (tl.TLProgram(
            (("f", Lam("x", Case(TLVar("x"), (
                Clause(Pattern("K_A", ("a", "a")), App(MethodVar("h"), TLVar("z"))),
                Clause(Pattern("K_A", ()), TLVar("a")))))),),
            TLPrim("&&", App(MethodVar("g"), _k("Tup1", TLVar("w"), TLVar("b"))),
                   App(Lam("b", TLVar("b")), _k("K_A", TLVar("b"), _k("Tup0"))))),
         ["main: tuple constructor Tup1 used with arity 2",
          "main: free variable b",
          "main: free variable w",
          "main: unbound method variable g",
          "f: duplicate clause constructors ['K_A', 'K_A']",
          "f: non-linear pattern Pattern(ctor='K_A', vars=('a', 'a'))",
          "f: constructor K_A used with arity 0 and 2",
          "f: free variable a",
          "f: free variable z",
          "f: unbound method variable h"]),
    ]
    assert [tl.validate_program(prog) for prog, _ in table] == \
        [expected for _, expected in table]


def test_validate_skips_children_of_leaves(monkeypatch):
    asked = []
    children = tl.children

    def counted(e):
        asked.append(type(e))
        return children(e)

    monkeypatch.setattr(tl, "children", counted)
    prog = tl.TLProgram((("f", Lam("x", TLVar("x"))),),
                        App(MethodVar("f"), _k("K_A", TLVar("y"), TLInt(1))))
    assert tl.validate_program(prog) == ["main: free variable y"]
    assert TLVar not in asked and MethodVar not in asked


def test_validate_is_stack_safe():
    deep = _k("K_Z")
    for _ in range(20000):
        deep = CtorApp("K_S", (deep,))
    problems = tl.validate_program(tl.TLProgram((), deep))
    assert problems == []


TERM_KINDS = [
    TLVar("x"), MethodVar("m_A"), TLInt(1), TLBool(True), CtorApp("K_A", ()),
    CtorApp("K_P", (TLInt(1), TLVar("x"))), Lam("x", TLVar("x")), App(TLVar("f"), TLInt(2)),
    Case(TLVar("x"), (Clause(Pattern("K_A", ("a", "b")), TLVar("a")),
                      Clause(Pattern("K_B", ()), TLInt(0)))),
    TLPrim("==", TLInt(1), TLInt(2)),
]


@pytest.mark.parametrize("e", TERM_KINDS, ids=lambda e: type(e).__name__)
def test_remake_inverts_children(e):
    assert tl.remake(e, [s for s, _ in tl.children(e)]) == e


def test_children_carry_the_variables_bound_over_them():
    assert tl.children(Lam("x", TLVar("y"))) == ((TLVar("y"), ("x",)),)
    case = tl.parse_expr("case x of { K_A a b -> a; K_B -> 0 }")
    assert tl.children(case) == ((TLVar("x"), ()), (TLVar("a"), ("a", "b")), (TLInt(0), ()))
    for e in (None, "x", fg.Var("x"), Clause(Pattern("K_A", ()), TLInt(0))):
        with pytest.raises(TypeError):
            tl.children(e)


def test_subst_is_simultaneous_and_shadows():
    e = tl.parse_expr(r"K_P x y (\x -> x y) (case x of { K_A y -> y x; K_B -> y })")
    got = tl.subst(e, {"x": TLVar("y"), "y": CtorApp("K_A", ())})
    assert tl.print_expr(got) == \
        r"K_P y K_A (\x -> x K_A) (case y of { K_A y -> y y; K_B -> K_A })"


def test_subst_takes_any_depth():
    n = 20000
    env = {"x": TLInt(1), "y": TLInt(2)}
    for text, want in [("\\x -> " * n + "(x, y)", "\\x -> " * n + "(x, 2)"),
                       ("(" * n + "y" + ",)" * n, "(" * n + "2" + ",)" * n)]:
        assert tl.print_expr(tl.subst(tl.parse_expr(text), env)) == want


def test_read_back_substitutes_a_closure_environment_at_once():
    # The value closes over x = y (free) and y = K_A: substituting x and
    # then y would turn x's y into K_A.
    out = tl_interp.tl_eval({}, tl.parse_expr(r"(\x -> (\y -> \z -> x) K_A) y"), 10)
    assert out == tl_interp.Value(Lam("z", TLVar("y")), 2)


def test_trace_plugs_each_frame_under_its_binders():
    e = tl.parse_expr(r"(\x -> case (\y -> y) K_A of { K_A -> x; K_B x -> x }) K_C")
    seen = []
    out = tl_interp.tl_eval({}, e, 10, trace=lambda n, rule, text: seen.append((rule, text)))
    assert out == tl_interp.Value(CtorApp("K_C", ()), 3)
    assert seen == [("tl-lambda", r"case (\y -> y) K_A of { K_A -> K_C; K_B x -> x }"),
                    ("tl-lambda", "case K_A of { K_A -> K_C; K_B x -> x }"),
                    ("tl-case", "K_C")]


def test_beta_costs_one_step():
    out = tl_interp.tl_eval({}, App(Lam("x", TLVar("x")), TLInt(1)), 10)
    assert out == tl_interp.Value(TLInt(1), 1)


def test_case_costs_one_step():
    e = Case(CtorApp("K_A", (TLInt(1), TLInt(2))),
             (Clause(Pattern("K_A", ("a", "b")), TLVar("b")),))
    out = tl_interp.tl_eval({}, e, 10)
    assert out == tl_interp.Value(TLInt(2), 1)


def test_method_unfolds_before_argument():
    mu = {"f": Lam("x", TLInt(0))}
    e = App(MethodVar("f"), App(Lam("y", TLInt(1)), TLInt(2)))
    r = tl_interp.tl_step(mu, e)
    assert r.rule == "tl-method"
    assert r.expr == App(mu["f"], e.arg)


def test_unbound_method_sticks():
    out = tl_interp.tl_eval({}, App(MethodVar("nope"), TLInt(1)), 10)
    assert isinstance(out, tl_interp.StuckOutcome)
    assert out.reason == tl_interp.UNBOUND_METHOD


def test_match_failure_sticks():
    e = Case(CtorApp("K_A", ()), (Clause(Pattern("K_B", ()), TLInt(1)),))
    out = tl_interp.tl_eval({}, e, 10)
    assert out.reason == tl_interp.MATCH_FAILURE


def test_applying_non_function_sticks():
    out = tl_interp.tl_eval({}, App(TLInt(1), TLInt(2)), 10)
    assert out.reason == tl_interp.NON_FUNCTION


def test_prim_eval():
    e = TLPrim("||", TLPrim("==", TLInt(1), TLInt(2)), TLBool(True))
    out = tl_interp.tl_eval({}, e, 10)
    assert out == tl_interp.Value(TLBool(True), 2)


def test_values_and_stuck_terms_do_not_step():
    for v in (CtorApp("K_A", (TLInt(1),)), Lam("x", TLVar("x"))):
        assert tl_interp.tl_step({}, v) == tl_interp.Value(v, 0)
    r = tl_interp.tl_step({}, App(TLInt(1), TLInt(2)))
    assert r == tl_interp.StuckOutcome(tl_interp.NON_FUNCTION, "applying non-function 1", 0)


def test_determinism():
    e = App(Lam("x", TLVar("x")), Case(CtorApp("K_A", ()),
                                       (Clause(Pattern("K_A", ()), TLInt(1)),)))
    assert tl_interp.tl_step({}, e) == tl_interp.tl_step({}, e)


def test_out_of_fuel():
    loop = {"f": Lam("x", App(MethodVar("f"), TLVar("x")))}
    out = tl_interp.tl_eval(loop, App(MethodVar("f"), TLInt(0)), 50)
    assert isinstance(out, tl_interp.OutOfFuel)
    assert out.steps == 50


def test_run_program_builds_substitution():
    prog = tl.TLProgram((("f", Lam("x", TLVar("x"))),),
                        App(MethodVar("f"), TLInt(9)))
    out = tl_interp.run_program(prog, 10)
    assert out.value == TLInt(9)
    assert out.steps == 2  # tl-method then tl-lambda


# sha256 over `_reader_records`, recorded before every delimited list in the
# TL parser went through `TokenReader.seq`.
TL_READER_DIGEST = "918f0466f6490fcfe656877af6324957ca127a4136b208d1af2a494d4d53cf13"


# Hand-written forms the translator never prints: pattern-lambda sugar
# (nested, so the order of its fresh variables shows), empty and trailing
# separators, one-tuples.
READER_TEXTS = [
    "\\(x, y) -> \\(z,) -> \\() -> (x, y, z,)",
    "let f = \\(a) -> \\(b, c) -> a in f (1,) ()",
    "case K_A of { }",
    "case (1, 2) of { (a, b,) -> a; () -> 0; (c,) -> c; }",
    "case K_A 1 of { K_A x -> \\(y) -> x; K_B -> (K_B, (), ((1)),) }",
]


def _reader_texts():
    """TL texts with their names: inline and hoisted translations of the
    corpus, the ladder and generated programs, four one-character deletions
    and insertions of some of them, and the texts above."""
    with open("corpus/manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)["files"]
    sources = []
    for entry in manifest:
        path = "corpus/" + entry["path"]
        with open(path, encoding="utf-8") as f:
            sources.append((path, parse_fg(f.read(), mode=entry["mode"]), True))
    for path in sorted(glob.glob("bench/ladder/*.fg")):
        with open(path, encoding="utf-8") as f:
            sources.append((path, parse_fg(f.read()), True))
    for mode in (fg.CORE, fg.EXT):
        sources += [(f"gen-{mode}-{seed}", gen_program(GenConfig(seed=seed, mode=mode)),
                     seed < 10) for seed in range(100)]
    texts = []
    for name, prog, mutate in sources:
        for hoist in (False, True):
            text = tl.print_program(translate_program(prog, hoist_helpers=hoist).tl_program)
            texts.append((f"{name}-{hoist}", text))
            if mutate:
                rng = random.Random(texts[-1][0])
                for k in range(4):
                    i, j = rng.randrange(len(text)), rng.randrange(len(text) + 1)
                    texts.append((f"{name}-{hoist}-del{k}", text[:i] + text[i + 1:]))
                    texts.append((f"{name}-{hoist}-ins{k}", text[:j] +
                                  rng.choice("\\(){},;<=|&->_$ \nxK1") + text[j:]))
    texts += [(f"form-{i}", text) for i, text in enumerate(READER_TEXTS)]
    texts += [(f"error-{i}", text) for i, (text, _m, _p) in enumerate(SYNTAX_ERRORS)]
    return texts


def _reader_records():
    for name, text in _reader_texts():
        try:
            rec = repr(tl.parse_program(text, filename=name))
        except FgError as err:
            rec = "\n".join(str(d) for d in err.diagnostics)
        yield f"{name}\n{rec}\n"


def test_tl_reader_is_pinned():
    h = hashlib.sha256()
    for rec in _reader_records():
        h.update(rec.encode())
    assert h.hexdigest() == TL_READER_DIGEST
