"""Source parser and canonical printer."""

import copy
import dataclasses
import gc
import glob
import hashlib
import pickle
import random
from pathlib import Path

import pytest

from fgdict import fg_ast as fg
from fgdict.cli import EXIT_DIAGNOSTICS, EXIT_OK, cli_dispatch
from fgdict.diagnostics import Diagnostic, FgError
from fgdict.fg_parser import parse_expr, parse_program, print_expr, print_program
from fgdict.gen import GenConfig, gen_program
from fgdict.translate import translate_program


def test_roundtrip_is_structural_identity():
    src = """
    // leading comment
    package main
    type A struct {}
    type B struct { x A, y A }
    type I interface { m(a A) A }
    func (this B) m(a A) A { return this.x }
    func main() { _ = B{A{}, A{}}.m(A{}).( I ) }
    """
    prog = parse_program(src)
    assert parse_program(print_program(prog)) == prog


def test_print_is_canonical():
    # Separator and whitespace variants print identically.
    a = parse_program("package main\ntype A struct{}\nfunc main(){_=A{}}")
    b = parse_program("type A struct {\n}\nfunc main() {\n  _ = A{}\n}")
    assert print_program(a) == print_program(b)


def test_expr_precedence_in_ext_mode():
    e = parse_expr("1 == 2 && true || false", mode=fg.EXT)
    # || binds loosest, then &&, then comparisons.
    assert isinstance(e, fg.BinOp) and e.op == "||"
    assert isinstance(e.left, fg.BinOp) and e.left.op == "&&"
    assert isinstance(e.left.left, fg.BinOp) and e.left.left.op == "=="


# The same operator strings as in test_tl.py, with the same shapes.
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
    if isinstance(e, fg.BinOp):
        return f"({_shape(e.left)} {e.op} {_shape(e.right)})"
    return e.name


@pytest.mark.parametrize("text, shape", OPERATOR_SHAPES)
def test_operator_precedence(text, shape):
    e = parse_expr(text, mode=fg.EXT)
    assert _shape(e) == shape
    assert parse_expr(print_expr(e), mode=fg.EXT) == e


def test_postfix_chain():
    e = parse_expr("a.f.m(b).(I)")
    assert isinstance(e, fg.Assert)
    assert isinstance(e.expr, fg.Call)
    assert isinstance(e.expr.recv, fg.Select)


def test_comparison_is_non_associative():
    with pytest.raises(FgError):
        parse_expr("1 < 2 < 3", mode=fg.EXT)
    with pytest.raises(FgError) as ei:
        parse_expr("a == b == c", mode=fg.EXT)
    assert str(ei.value.diagnostics[0].span) == "<input>:1:8"


@pytest.mark.parametrize("text, mode, where", [
    ("1 < 2 < 3", fg.EXT, "1:7"),
    ("a == b == c", fg.EXT, "1:8"),
    ("A{} B{}", fg.CORE, "1:5"),
])
def test_parse_expr_reports_trailing_input(text, mode, where):
    with pytest.raises(FgError) as ei:
        parse_expr(text, mode=mode)
    assert [str(d) for d in ei.value.diagnostics] == \
        [f"<input>:{where}: error: trailing input after expression [syntax]"]


def test_underscore_identifiers_rejected():
    with pytest.raises(FgError):
        parse_expr("_x")


def test_var_bindings_desugar_by_substitution():
    prog = parse_program("""
    package main
    type A struct { b B }
    type B struct {}
    func main() {
        var b B = B{}
        var a A = A{b}
        _ = a.b
    }
    """, mode=fg.EXT)
    assert print_expr(prog.main) == "A{B{}}.b"


def test_subst_with_no_bindings_rebuilds_nothing(monkeypatch):
    e = parse_expr("A{B{}}.m(C{}).(I)")
    assert fg.subst(e, {}) is e
    remade = []
    monkeypatch.setattr(fg, "remake", lambda e, subs: remade.append(e))
    parse_program("""
    package main
    type A struct {}
    type B struct { a A }
    func main() { _ = B{A{}}.a }
    """)
    assert remade == []


def test_var_bindings_are_ext_only():
    src = """
    package main
    type A struct {}
    func main() { var a A = A{}; _ = a }
    """
    with pytest.raises(FgError):
        parse_program(src, mode=fg.CORE)
    parse_program(src, mode=fg.EXT)


@pytest.mark.parametrize("mode", [fg.CORE, fg.EXT])
def test_var_blank_binds_main(mode):
    src = "type A struct {}\nfunc main() { %s = A{}; }"
    prog = parse_program(src % "var _", mode=mode)
    assert prog == parse_program(src % "_", mode=mode)
    assert str(prog.main.span) == "<input>:2:23"


def test_primitives_are_ext_only():
    with pytest.raises(FgError):
        parse_expr("1", mode=fg.CORE)
    assert parse_expr("1", mode=fg.EXT) == fg.IntLit(1)


def test_syntax_error_has_position():
    with pytest.raises(FgError) as ei:
        parse_program("type A struct { } func main() { _ = } ")
    d = ei.value.diagnostics[0]
    assert d.span is not None and d.span.line >= 1


def test_roundtrip_and_injectivity_on_generated_programs():
    seen = {}
    for seed in range(150):
        prog = gen_program(GenConfig(seed=seed))
        text = print_program(prog)
        assert parse_program(text, mode=prog.mode) == prog
        if text in seen:
            assert seen[text] == prog  # identical text implies identical AST
        seen[text] = prog


def test_roundtrip_on_generated_ext_programs():
    for seed in range(50):
        prog = gen_program(GenConfig(seed=seed, mode=fg.EXT))
        assert parse_program(print_program(prog), mode=fg.EXT) == prog


# sha256 over `_front_end_records`, recorded before both parsers shared one
# token reader.
FRONT_END_DIGEST = "4f827f3dbb75d14cbf97dcdd3acbcf1e0c3b5b54956dea47706733154845d097"

ERROR_INPUTS = [
    "type A struct {} func main() { _ = A{} } $",
    "type A struct {}\nfunc main() {\n  _ = A{}.\n}",
    "type A struct {}\n// comment\n\tfunc main() { _ = 1 == 2 == 3 }",
    "type A struct {} func main() { _ = a || b == c == d }",
    "type A struct {} func main() { _ = a < b < c }",
    "type A struct {} func main() { _ = a && b }",
    "type A struct {} func main() { _ = A{}.(A }",
    "type A struct {} func main() { _ = A{} ",
    "type A struct {} func main() { _ = A{} } trailing",
    "type A struct {}",
    "type _A struct {} func main() { _ = A{} }",
    "type A blob {} func main() { _ = A{} }",
    "type A struct { x A y } func main() { _ = A{} }",
    "type A struct { x A; ; } func main() { _ = A{} }",
    "type I interface { m(x A, ) A } func main() { _ = A{} }",
    "func (this A) m() A { this } func main() { _ = A{} }",
    "func (this A) m() A { return this.() } func main() { _ = A{} }",
    "type A struct {} func main() { var x A = A{}; _ = x }",
    "type A struct {} func main() { var int A = A{}; _ = int }",
    "type A struct {} func main() { var true A = A{}; _ = true }",
    "type A struct {} func main() { return A{} }",
    "type A struct {} func main() { _ = (A{} }",
    "type A struct {} func main() { _ = A{,} }",
    "type A struct {} func main() { _ = A{}.m(,) }",
    "package main; package main",
    "package main\n\n\n  ;type A struct {} func main() { _ = 12 }",
    "type A struct {} func main() { _ = A{} == }",
    "type A struct {} func main() { _ = é }",
    "type A struct {} func main() {\r\n _ = A{}\r\n}\r\n @",
    "type A struct {} func main() { _ = A{}.f.g(x).(I) || (true && false) }",
]


def _dump(node):
    """Every field of a parse tree, spans included."""
    if dataclasses.is_dataclass(node):
        inner = ", ".join(f"{f.name}={_dump(getattr(node, f.name))}"
                          for f in dataclasses.fields(node))
        return f"{type(node).__name__}({inner})"
    if isinstance(node, tuple):
        return "(" + ", ".join(_dump(x) for x in node) + ")"
    return repr(node)


def _mutants(name, text):
    """Two one-character edits of `text`: a deletion and an insertion."""
    rng = random.Random(name)
    i, j = rng.randrange(len(text)), rng.randrange(len(text) + 1)
    yield f"{name}-del", text[:i] + text[i + 1:]
    yield f"{name}-ins", text[:j] + rng.choice("{}().,;<=|&_$ \nx1") + text[j:]


def _front_end_texts():
    texts = []
    for path in sorted(glob.glob("corpus/**/*.fg", recursive=True)) + \
            sorted(glob.glob("bench/ladder/*.fg")):
        with open(path, encoding="utf-8") as f:
            texts.append((path, f.read()))
    for mode in (fg.CORE, fg.EXT):
        for seed in range(300):
            texts.append((f"gen-{mode}-{seed}",
                          print_program(gen_program(GenConfig(seed=seed, mode=mode)))))
    texts += [(f"error-{i}", text) for i, text in enumerate(ERROR_INPUTS)]
    for name, text in texts:
        yield name, text
        yield from _mutants(name, text)


def _front_end_records():
    for name, text in _front_end_texts():
        for mode in (fg.CORE, fg.EXT):
            try:
                rec = _dump(parse_program(text, mode=mode, filename=name))
            except FgError as err:
                rec = "\n".join(str(d) for d in err.diagnostics)
            yield f"{name} {mode}\n{rec}\n"


def test_front_end_is_pinned():
    h = hashlib.sha256()
    for rec in _front_end_records():
        h.update(rec.encode())
    assert h.hexdigest() == FRONT_END_DIGEST


def test_var_bindings_shadow_like_nested_substitution():
    prog = parse_program("""
    package main
    type A struct {}
    type B struct { a A }
    type C struct { b B }
    func main() {
        var x A = A{}
        var x B = B{x}
        var y C = C{x}
        _ = y.b
    }
    """, mode=fg.EXT)
    assert print_expr(prog.main) == "C{B{A{}}}.b"


def test_only_ascii_digits_are_digits():
    with pytest.raises(FgError) as ei:
        parse_program("func main() { _ = \u0661\u0662 == 12 }", mode=fg.EXT, filename="t.fg")
    assert [str(d) for d in ei.value.diagnostics] == \
        ["t.fg:1:19: error: unexpected character '\u0661' [syntax]"]


@pytest.mark.parametrize("literal, ok", [
    (str(2 ** 63 - 1), True), ("0" * 30 + "7", True),
    (str(2 ** 63), False), ("9" * 5000, False),
], ids=["int-max", "leading-zeros", "int-max-plus-one", "5000-digits"])
def test_integer_literals_fit_in_go_int(literal, ok, tmp_path, capsys):
    f = tmp_path / "lit.fg"
    f.write_text(f"package main\ntype A struct {{}}\nfunc main() {{ _ = {literal} == 1 }}\n",
                 encoding="utf-8")
    code = cli_dispatch(["check", str(f), "--ext"])
    out, err = capsys.readouterr()
    if ok:
        assert (code, out, err) == (EXIT_OK, "ok: main has type bool\n", "")
    else:
        assert (code, err) == \
            (EXIT_DIAGNOSTICS, f"{f}:3:19: error: integer literal out of range [syntax]\n")


def _spans(prog):
    """The spans of every declaration and expression node of `prog`."""
    return [d.span for d in prog.decls] + [e.span for e in fg.program_exprs(prog)]


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["deepcopy", "pickle"])
def test_copies_keep_spans_not_yet_read(clone):
    prog = parse_program(Path("corpus/equality.fg").read_text(encoding="utf-8"),
                         mode=fg.EXT, filename="eq.fg")
    twin = clone(prog)  # before any span of `prog` is read
    assert [str(s) for s in _spans(twin)] == [str(s) for s in _spans(prog)]
    assert _dump(twin) == _dump(prog)
    assert str(twin.main.span) == "eq.fg:39:10"


def _parse_dropping_the_text():
    # Joined at run time, so that only the parse tree holds the text.
    text = "\n".join(["package main", "type A struct {}", "func main() {", "  _ = A{}.f", "}"])
    return parse_program(text, filename="late.fg")


def test_a_span_read_after_its_text_is_dropped_is_right():
    prog = _parse_dropping_the_text()
    gc.collect()
    assert [str(s) for s in _spans(prog)] == ["late.fg:2:1", "late.fg:4:10", "late.fg:4:7"]
    assert (prog.main.span.start, prog.main.span.end) == (53, 54)


def test_a_span_has_only_its_fields():
    span = parse_expr("a.f").span
    with pytest.raises(AttributeError):
        span.nope
    assert not hasattr(span, "__setstate__")
    assert dataclasses.astuple(span) == ("<input>", 1, 2, 1, 2)


def test_a_caught_type_error_works_out_no_span():
    """`translate_program` catches one `FgError` per ill-typed node and
    keeps its diagnostics; the error's message, which works out every
    span, is formatted only when read."""
    prog = parse_program("package main\ntype A struct {}\nfunc main() { _ = A{}.m() }\n")
    diags = translate_program(prog).diagnostics
    assert [d.code for d in diags] == ["unknown-method"]
    assert all("_at" in vars(d.span) for d in diags)
    assert str(FgError(diags)) == "; ".join(str(d) for d in diags)
    assert str(FgError(diags[0])) == "<input>:3:22: error: no method m on A [unknown-method]"


def test_a_node_made_without_a_text_is_at_the_start_of_input():
    assert str(fg.Var("x").span) == "<input>:1:1"
    assert str(Diagnostic("c", "m")) == "<input>:1:1: error: m [c]"
