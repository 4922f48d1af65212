"""Concrete syntax for FG source files (.fg) and the canonical printer.

The surface syntax follows the Go-like fragment: type declarations for
structs and interfaces, method declarations with a single return statement,
and a main function whose body is `_ = e`.  Extension mode additionally
accepts int/bool literals, the infix operators `== < && ||` and
`var x t = e` bindings in main, which are desugared by substitution.

An expression is read in one loop that keeps the constructs still open on
an explicit stack, and the desugaring substitutes with `fg_ast.subst`,
which keeps its work on one too, so input of any nesting depth parses at
Python's default recursion limit; importing this module leaves that limit
alone.
"""

from __future__ import annotations

from . import fg_ast as fg
from .diagnostics import EOF, PREC, PREC_CMP, TokenReader, lexicon, push_items

KEYWORDS = {"type", "struct", "interface", "func", "return", "main", "var", "package"}
EXT_KEYWORDS = {"true", "false"}

_PREC_POSTFIX = 4

# Frames of the expression reader: (tag, binding power of the interrupted
# expression, ...); see `_Parser.expr`.
_BIN, _PAREN, _STRUCT, _CALL = "bin", "paren", "struct", "call"


class _Parser(TokenReader):
    LEX, CHUNKS, KINDS = lexicon(r"//[^\n]*", ident=r"[A-Za-z_][A-Za-z0-9_]*",
                                 op=r"==|&&|\|\||[{}().,;<=]", num=r"[0-9]+")

    def __init__(self, text, mode, filename):
        super().__init__(text, filename)
        self.mode = mode
        # The tokens that read as identifiers in this mode.
        reserved = KEYWORDS.union(EXT_KEYWORDS if mode == fg.EXT else fg.PRIMITIVES)
        self.names = {tok for tok, kind in self.kinds.items()
                      if kind == "ident" and tok not in reserved and tok[0] != "_"}

    def ident(self, what="identifier"):
        text = self.cur
        if text not in self.names:
            if self.kinds[text] != "ident" or text in KEYWORDS or \
                    (text in EXT_KEYWORDS and self.mode == fg.EXT):
                self.fail_found(f"expected {what}", self.i)
            if text.startswith("_"):
                self.fail_found("identifiers starting with '_' are reserved", self.i)
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
            elif self.at(EOF):
                self.fail("missing func main")
            else:
                self.fail("expected declaration")
        main = self.main_body()
        if not self.at(EOF):
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
                if not self.at("}") and self.kinds[self.cur] != "ident":
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
        # Desugar var bindings by substitution: each right-hand side sees
        # the bindings before it.
        env = {}
        for x, _t, rhs in bindings:
            env[x] = fg.subst(rhs, env)
        return fg.subst(e, env)

    # -- expressions

    def expr(self):
        """An expression: binary operators by PREC over postfix chains over
        primary expressions, read in one loop.  `frames` holds the
        constructs still open, each waiting for an expression and holding
        the binding power of the one it interrupts: a binary operator's right
        operand, a parenthesised expression, and a struct literal's or a
        call's next argument.  So input of any depth parses."""
        frames = []
        push, pop = frames.append, frames.pop
        min_prec, e = 1, None  # of the innermost expression being read
        while True:
            if e is None:  # a primary expression, or a construct it opens
                tok, text = self.i, self.cur
                kind = self.kinds[text]
                if kind == "num":
                    self.advance()
                    if self.mode != fg.EXT:
                        self.fail("int literals require extension mode", tok)
                    e = fg.IntLit(self.number(tok), span=self.span(tok))
                elif text in EXT_KEYWORDS and self.mode == fg.EXT:
                    self.advance()
                    e = fg.BoolLit(text == "true", span=self.span(tok))
                elif self.accept("("):
                    push((_PAREN, min_prec))
                    min_prec = 1
                    continue
                elif kind == "ident" and text not in KEYWORDS:
                    name = self.ident()
                    if not self.accept("{"):
                        e = fg.Var(name, span=self.span(tok))
                    elif self.accept("}"):
                        e = fg.StructLit(name, (), span=self.span(tok))
                    else:
                        push((_STRUCT, min_prec, [], name, self.span(tok)))
                        min_prec = 1
                        continue
                else:
                    self.fail_found("expected expression", self.i)
            while self.at("."):
                dot = self.span(self.advance())
                if self.accept("("):
                    t = self.ident("type name")
                    self.expect(")")
                    e = fg.Assert(e, t, span=dot)
                    continue
                name = self.ident("field or method name")
                if not self.accept("("):
                    e = fg.Select(e, name, span=dot)
                elif self.accept(")"):
                    e = fg.Call(e, name, (), span=dot)
                else:
                    push((_CALL, min_prec, [], e, name, dot))
                    min_prec, e = 1, None
                    break
            else:
                # Binary operators; then hand each finished expression to
                # the innermost open construct.
                first = True
                while True:
                    prec = PREC.get(self.cur, 0)
                    if prec >= min_prec and (first or prec != PREC_CMP):
                        op = self.advance()
                        if self.mode != fg.EXT:
                            self.fail(f"operator {self.tokens[op]!r} requires extension mode", op)
                        push((_BIN, min_prec, e, op))
                        min_prec, e = prec + 1, None
                        break
                    if not frames:
                        return e
                    f = pop()
                    tag, min_prec = f[0], f[1]
                    if tag is _BIN:
                        op = f[3]
                        e = fg.BinOp(self.tokens[op], f[2], e, span=self.span(op))
                        first = False
                        continue
                    if tag is _PAREN:
                        self.expect(")")
                        break
                    args = f[2]
                    args.append(e)
                    close = "}" if tag is _STRUCT else ")"
                    if self.accept(",") and not self.at(close):
                        push(f)
                        min_prec, e = 1, None
                        break
                    self.expect(close)
                    if tag is _STRUCT:
                        e = fg.StructLit(f[3], tuple(args), span=f[4])
                    else:
                        e = fg.Call(f[3], f[4], tuple(args), span=f[5])
                    break


def parse_program(text, mode=fg.CORE, filename="<input>"):
    """Parse FG source text into a Program.  Raises FgError with span-carrying
    diagnostics on lexical or syntactic failure."""
    return _Parser(text, mode, filename).program()


def parse_expr(text, mode=fg.CORE, filename="<input>"):
    p = _Parser(text, mode, filename)
    e = p.expr()
    if not p.at(EOF):
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
