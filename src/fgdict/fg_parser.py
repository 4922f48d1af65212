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
from .diagnostics import PREC, PREC_CMP, TokenReader, push_items

# Both parsers, `subst_expr` and the translator recurse once per level of
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
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_PREC_POSTFIX = 4


class _Parser(TokenReader):
    def __init__(self, text, mode, filename):
        super().__init__(_TOKEN_RE, text, filename)
        self.mode = mode

    def ident(self, what="identifier"):
        kind, text, _ = self.cur
        if kind != "ident" or text in KEYWORDS or \
                (text in EXT_KEYWORDS and self.mode == fg.EXT):
            self.fail_found(f"expected {what}")
        if text.startswith("_"):
            self.fail_found("identifiers starting with '_' are reserved")
        if text in fg.PRIMITIVES and self.mode == fg.CORE:
            self.fail(f"{text} requires extension mode")
        self.advance()
        return text

    # -- declarations

    def program(self):
        if self.accept("package"):
            self.expect("main")
            self.accept(";")
        decls = []
        while True:
            if self.at("type"):
                decls.append(self.type_decl())
            elif self.at("func"):
                d = self.func_decl()
                if d is None:  # main
                    break
                decls.append(d)
            elif self.cur[0] == "eof":
                self.fail("missing func main")
            else:
                self.fail("expected declaration")
        main = self.main_body()
        if self.cur[0] != "eof":
            self.fail("trailing input after func main")
        return fg.Program(tuple(decls), main, self.mode)

    def type_decl(self):
        start = self.span(self.expect("type"))
        name = self.ident("type name")
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
            t = self.ident("type name")
            fields.append((f, t))
            if not (self.accept(";") or self.accept(",")):
                if not self.at("}") and self.cur[0] != "ident":
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
        params = self.seq(")", lambda: (self.ident("parameter name"),
                                        self.ident("type name")))
        ret = self.ident("type name")
        return fg.MethodSig(tuple(params), ret)

    def func_decl(self):
        start = self.span(self.expect("func"))
        if self.accept("main"):
            self.expect("(")
            self.expect(")")
            return None
        self.expect("(")
        recv_var = self.ident("receiver name")
        recv_type = self.ident("type name")
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
        # `var x T = e` bindings until `var _ = e` or `_ = e`.
        while True:
            if self.accept("var") and not self.at("_"):
                if self.mode != fg.EXT:
                    self.fail("var bindings in main require extension mode")
                lhs = (self.ident("variable name"), self.ident("type name"))
            elif self.accept("_"):
                lhs = None
            else:
                self.fail("expected 'var' binding or '_ = e' in main")
            self.expect("=")
            e = self.expr()
            self.accept(";")
            if lhs is None:
                break
            bindings.append((*lhs, e))
        self.expect("}")
        # Desugar var bindings by substitution, innermost last.
        for x, _t, rhs in reversed(bindings):
            e = subst_expr(e, x, rhs)
        return e

    # -- expressions: binary operators by PREC, then postfix

    def expr(self, min_prec=1):
        e = self.postfix_expr()
        first = True
        while (prec := PREC.get(self.cur[1], 0)) >= min_prec and \
                (first or prec != PREC_CMP):
            op = self.advance()
            if self.mode != fg.EXT:
                self.fail(f"operator {op[1]!r} requires extension mode", op)
            e = fg.BinOp(op[1], e, self.expr(prec + 1), span=self.span(op))
            first = False
        return e

    def postfix_expr(self):
        e = self.primary_expr()
        while self.at("."):
            dot = self.span(self.advance())
            if self.accept("("):
                t = self.ident("type name")
                self.expect(")")
                e = fg.Assert(e, t, span=dot)
            else:
                name = self.ident("field or method name")
                if self.accept("("):
                    args = self.seq(")", self.expr)
                    e = fg.Call(e, name, tuple(args), span=dot)
                else:
                    e = fg.Select(e, name, span=dot)
        return e

    def primary_expr(self):
        tok = self.cur
        kind, text, _ = tok
        if kind == "num":
            self.advance()
            if self.mode != fg.EXT:
                self.fail("int literals require extension mode", tok)
            return fg.IntLit(int(text), span=self.span(tok))
        if text in EXT_KEYWORDS and self.mode == fg.EXT:
            self.advance()
            return fg.BoolLit(text == "true", span=self.span(tok))
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident" and text not in KEYWORDS:
            name = self.ident()
            if self.accept("{"):
                args = self.seq("}", self.expr)
                return fg.StructLit(name, tuple(args), span=self.span(tok))
            return fg.Var(name, span=self.span(tok))
        self.fail_found("expected expression")


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
    return _Parser(text, mode, filename).program()


def parse_expr(text, mode=fg.CORE, filename="<input>"):
    p = _Parser(text, mode, filename)
    e = p.expr()
    if p.cur[0] != "eof":
        p.fail("trailing input after expression")
    return e


# ---------------------------------------------------------------------------
# Canonical printer

def print_expr(e):
    """Canonical text of an expression.  The stack holds text still to be
    written and (expression, precedence) pairs still to be printed, so values
    of any depth print."""
    out = []
    stack = [(e, 0)]
    push = stack.append
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        e, prec = item
        if isinstance(e, fg.Var):
            out.append(e.name)
        elif isinstance(e, fg.StructLit):
            out.append(f"{e.type_name}{{")
            push("}")
            push_items(push, e.args, 0, ", ")
        elif isinstance(e, fg.Call):
            push(")")
            push_items(push, e.args, 0, ", ")
            push(f".{e.method}(")
            push((e.recv, _PREC_POSTFIX))
        elif isinstance(e, fg.Select):
            push(f".{e.fld}")
            push((e.recv, _PREC_POSTFIX))
        elif isinstance(e, fg.Assert):
            push(f".({e.type_name})")
            push((e.expr, _PREC_POSTFIX))
        elif isinstance(e, fg.BinOp):
            mine = PREC[e.op]
            if mine < prec:
                out.append("(")
                push(")")
            push((e.right, mine + 1))
            push(f" {e.op} ")
            # Comparisons do not chain: their left operand binds tighter too.
            push((e.left, mine + 1 if mine == PREC_CMP else mine))
        elif isinstance(e, fg.IntLit):
            out.append(str(e.value))
        elif isinstance(e, fg.BoolLit):
            out.append("true" if e.value else "false")
        else:
            raise TypeError(f"not an FG expression: {e!r}")
    return "".join(out)


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
