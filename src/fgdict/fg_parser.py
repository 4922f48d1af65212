"""Concrete syntax for FG source files (.fg) and the canonical printer.

The surface syntax follows the Go-like fragment: type declarations for
structs and interfaces, method declarations with a single return statement,
and a main function whose body is `_ = e`.  Extension mode additionally
accepts int/bool literals, the infix operators `== < && ||` and
`var x t = e` bindings in main, which are desugared by substitution.
"""

from __future__ import annotations

import re
import sys

from . import fg_ast as fg
from .diagnostics import SYNTAX, Diagnostic, FgError, SourceSpan

# The parser, the printer and the translation recurse once per level of
# expression nesting; Python's default limit fails on a numeral a few
# hundred levels deep.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 8000))

KEYWORDS = {"type", "struct", "interface", "func", "return", "main", "var", "package"}
EXT_KEYWORDS = {"true", "false"}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|//[^\n]*)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>==|&&|\|\||[{}().,;<=])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind, text, span):
        self.kind = kind  # 'num' | 'ident' | 'op' | 'eof'
        self.text = text
        self.span = span

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r})"


def _lex(text, filename):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(filename, pos, pos + 1, line, pos - line_start + 1)
            raise FgError(Diagnostic(SYNTAX, f"unexpected character {text[pos]!r}", span))
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            span = SourceSpan(filename, pos, m.end(), line, pos - line_start + 1)
            tokens.append(Token(kind, chunk, span))
        nl = chunk.count("\n")
        if nl:
            line += nl
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(filename, n, n, line, n - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens, mode, filename):
        self.tokens = tokens
        self.i = 0
        self.mode = mode
        self.filename = filename

    # -- token helpers

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.cur
        self.i += 1
        return tok

    def fail(self, msg, span=None):
        raise FgError(Diagnostic(SYNTAX, msg, span or self.cur.span))

    def expect(self, text):
        if self.cur.text != text or self.cur.kind == "eof":
            self.fail(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def at(self, text):
        return self.cur.kind != "eof" and self.cur.text == text

    def accept(self, text):
        if self.at(text):
            self.advance()
            return True
        return False

    def ident(self, what="identifier"):
        tok = self.cur
        if tok.kind != "ident" or tok.text in KEYWORDS:
            self.fail(f"expected {what}, found {tok.text!r}")
        if tok.text.startswith("_"):
            self.fail(f"identifiers starting with '_' are reserved, found {tok.text!r}")
        if tok.text in fg.PRIMITIVES and self.mode == fg.CORE:
            self.fail(f"{tok.text} requires extension mode")
        if tok.text in EXT_KEYWORDS and self.mode == fg.EXT:
            self.fail(f"expected {what}, found {tok.text!r}")
        return self.advance().text

    def type_name(self):
        return self.ident("type name")

    # -- declarations

    def program(self):
        if self.accept("package"):
            self.expect("main")
            self.accept(";")
        decls = []
        main = None
        while self.cur.kind != "eof":
            if self.at("type"):
                decls.append(self.type_decl())
            elif self.at("func"):
                d = self.func_decl()
                if d is None:  # main
                    main = self.main_body()
                    break
                decls.append(d)
            else:
                self.fail("expected declaration")
        if main is None:
            self.fail("missing func main")
        if self.cur.kind != "eof":
            self.fail("trailing input after func main")
        return fg.Program(tuple(decls), main, self.mode)

    def type_decl(self):
        start = self.expect("type").span
        name = self.type_name()
        if self.accept("struct"):
            lit = self.struct_literal()
        elif self.accept("interface"):
            lit = self.iface_literal()
        else:
            self.fail("expected 'struct' or 'interface'")
        return fg.TypeDecl(name, lit, span=start)

    def struct_literal(self):
        self.expect("{")
        fields = []
        while not self.at("}"):
            f = self.ident("field name")
            t = self.type_name()
            fields.append((f, t))
            if not (self.accept(";") or self.accept(",")):
                if not self.at("}") and self.cur.kind != "ident":
                    self.fail("expected field declaration or '}'")
        self.expect("}")
        return fg.StructType(tuple(fields))

    def iface_literal(self):
        self.expect("{")
        specs = []
        while not self.at("}"):
            m = self.ident("method name")
            sig = self.signature()
            specs.append(fg.MethodSpec(m, sig))
            self.accept(";") or self.accept(",")
        self.expect("}")
        return fg.InterfaceType(tuple(specs))

    def signature(self):
        self.expect("(")
        params = []
        while not self.at(")"):
            x = self.ident("parameter name")
            t = self.type_name()
            params.append((x, t))
            if not self.accept(","):
                break
        self.expect(")")
        ret = self.type_name()
        return fg.MethodSig(tuple(params), ret)

    def func_decl(self):
        start = self.expect("func").span
        if self.at("main"):
            self.advance()
            self.expect("(")
            self.expect(")")
            return None
        self.expect("(")
        recv_var = self.ident("receiver name")
        recv_type = self.type_name()
        self.expect(")")
        name = self.ident("method name")
        sig = self.signature()
        self.expect("{")
        self.expect("return")
        body = self.expr()
        self.accept(";")
        self.expect("}")
        return fg.MethodDecl(recv_var, recv_type, name, sig, body, span=start)

    def main_body(self):
        self.expect("{")
        bindings = []
        while True:
            if self.accept("var"):
                if self.accept("_"):
                    self.expect("=")
                    e = self.expr()
                    self.accept(";")
                    break
                if self.mode != fg.EXT:
                    self.fail("var bindings in main require extension mode")
                x = self.ident("variable name")
                t = self.type_name()
                self.expect("=")
                e = self.expr()
                self.accept(";")
                bindings.append((x, t, e))
            elif self.accept("_"):
                self.expect("=")
                e = self.expr()
                self.accept(";")
                break
            else:
                self.fail("expected 'var' binding or '_ = e' in main")
        self.expect("}")
        # Desugar var bindings by substitution, innermost last.
        for x, _t, rhs in reversed(bindings):
            e = subst_expr(e, x, rhs)
        return e

    # -- expressions (precedence: || < && < (==|<) < postfix)

    def expr(self):
        e = self.and_expr()
        while self.at("||"):
            op = self.advance()
            self.check_ext(op)
            e = fg.BinOp("||", e, self.and_expr(), span=op.span)
        return e

    def and_expr(self):
        e = self.cmp_expr()
        while self.at("&&"):
            op = self.advance()
            self.check_ext(op)
            e = fg.BinOp("&&", e, self.cmp_expr(), span=op.span)
        return e

    def cmp_expr(self):
        e = self.postfix_expr()
        if self.at("==") or self.at("<"):
            op = self.advance()
            self.check_ext(op)
            e = fg.BinOp(op.text, e, self.postfix_expr(), span=op.span)
        return e

    def check_ext(self, tok):
        if self.mode != fg.EXT:
            self.fail(f"operator {tok.text!r} requires extension mode", tok.span)

    def postfix_expr(self):
        e = self.primary_expr()
        while self.at("."):
            dot = self.advance()
            if self.accept("("):
                t = self.type_name()
                self.expect(")")
                e = fg.Assert(e, t, span=dot.span)
            else:
                name = self.ident("field or method name")
                if self.accept("("):
                    args = self.call_args()
                    e = fg.Call(e, name, tuple(args), span=dot.span)
                else:
                    e = fg.Select(e, name, span=dot.span)
        return e

    def call_args(self):
        args = []
        while not self.at(")"):
            args.append(self.expr())
            if not self.accept(","):
                break
        self.expect(")")
        return args

    def primary_expr(self):
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            if self.mode != fg.EXT:
                self.fail("int literals require extension mode", tok.span)
            return fg.IntLit(int(tok.text), span=tok.span)
        if tok.text in ("true", "false") and self.mode == fg.EXT:
            self.advance()
            return fg.BoolLit(tok.text == "true", span=tok.span)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            name = self.ident()
            if self.accept("{"):
                args = []
                while not self.at("}"):
                    args.append(self.expr())
                    if not self.accept(","):
                        break
                self.expect("}")
                return fg.StructLit(name, tuple(args), span=tok.span)
            return fg.Var(name, span=tok.span)
        self.fail(f"expected expression, found {tok.text!r}")


def subst_expr(e, x, replacement):
    """Capture-free substitution of a variable inside an FG expression
    (FG expressions contain no binders)."""
    if isinstance(e, fg.Var):
        return replacement if e.name == x else e
    if isinstance(e, fg.StructLit):
        return fg.StructLit(e.type_name, tuple(subst_expr(a, x, replacement) for a in e.args), span=e.span)
    if isinstance(e, fg.Select):
        return fg.Select(subst_expr(e.recv, x, replacement), e.fld, span=e.span)
    if isinstance(e, fg.Call):
        return fg.Call(subst_expr(e.recv, x, replacement), e.method,
                       tuple(subst_expr(a, x, replacement) for a in e.args), span=e.span)
    if isinstance(e, fg.Assert):
        return fg.Assert(subst_expr(e.expr, x, replacement), e.type_name, span=e.span)
    if isinstance(e, fg.BinOp):
        return fg.BinOp(e.op, subst_expr(e.left, x, replacement),
                        subst_expr(e.right, x, replacement), span=e.span)
    return e


def parse_program(text, mode=fg.CORE, filename="<input>"):
    """Parse FG source text into a Program.  Raises FgError with span-carrying
    diagnostics on lexical or syntactic failure."""
    tokens = _lex(text, filename)
    return _Parser(tokens, mode, filename).program()


def parse_expr(text, mode=fg.CORE, filename="<input>"):
    p = _Parser(_lex(text, filename), mode, filename)
    e = p.expr()
    if p.cur.kind != "eof":
        p.fail("trailing input after expression")
    return e


# ---------------------------------------------------------------------------
# Canonical printer

_PREC_OR, _PREC_AND, _PREC_CMP, _PREC_POSTFIX = 1, 2, 3, 4


def print_expr(e, prec=0):
    if isinstance(e, fg.Var):
        return e.name
    if isinstance(e, fg.IntLit):
        return str(e.value)
    if isinstance(e, fg.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, fg.StructLit):
        return f"{e.type_name}{{{', '.join(print_expr(a) for a in e.args)}}}"
    if isinstance(e, fg.Select):
        return f"{print_expr(e.recv, _PREC_POSTFIX)}.{e.fld}"
    if isinstance(e, fg.Call):
        args = ", ".join(print_expr(a) for a in e.args)
        return f"{print_expr(e.recv, _PREC_POSTFIX)}.{e.method}({args})"
    if isinstance(e, fg.Assert):
        return f"{print_expr(e.expr, _PREC_POSTFIX)}.({e.type_name})"
    if isinstance(e, fg.BinOp):
        mine = {"||": _PREC_OR, "&&": _PREC_AND, "==": _PREC_CMP, "<": _PREC_CMP}[e.op]
        # == and < are non-associative: operands print at postfix level.
        sub = mine + 1 if e.op in ("==", "<") else mine
        left = print_expr(e.left, sub if e.op in ("==", "<") else mine)
        right = print_expr(e.right, sub if e.op in ("==", "<") else mine + 1)
        s = f"{left} {e.op} {right}"
        return f"({s})" if mine < prec else s
    raise TypeError(f"not an FG expression: {e!r}")


def _print_sig(sig):
    params = ", ".join(f"{x} {t}" for x, t in sig.params)
    return f"({params}) {sig.ret}"


def print_program(prog: fg.Program) -> str:
    """Deterministic canonical text; parse(print(p)) is structurally p."""
    out = []
    for d in prog.decls:
        if isinstance(d, fg.TypeDecl):
            if isinstance(d.literal, fg.StructType):
                body = "; ".join(f"{f} {t}" for f, t in d.literal.fields)
                out.append(f"type {d.name} struct {{{' ' + body + ' ' if body else ''}}}")
            else:
                body = "; ".join(f"{s.name}{_print_sig(s.sig)}" for s in d.literal.specs)
                out.append(f"type {d.name} interface {{{' ' + body + ' ' if body else ''}}}")
        else:
            out.append(
                f"func ({d.recv_var} {d.recv_type}) {d.name}{_print_sig(d.sig)} "
                f"{{ return {print_expr(d.body)} }}"
            )
    out.append(f"func main() {{ _ = {print_expr(prog.main)} }}")
    return "\n".join(out) + "\n"
