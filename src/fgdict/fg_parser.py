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
from .diagnostics import EOF, PREC, PREC_CMP, TokenReader, collector_paused, lexicon, push_items

KEYWORDS = {"type", "struct", "interface", "func", "return", "main", "var", "package"}
EXT_KEYWORDS = {"true", "false"}

_PREC_POSTFIX = 4

# Frames of the expression reader: (tag, binding power of the interrupted
# expression, ...); see `_Parser.expr`.
_BIN, _PAREN, _STRUCT, _CALL = "bin", "paren", "struct", "call"


class _Parser(TokenReader):
    LEX, KINDS = lexicon(r"//[^\n]*", ident=r"[A-Za-z_][A-Za-z0-9_]*",
                         op=r"==|&&|\|\||[{}().,;<=]", num=r"[0-9]+")

    def __init__(self, text, mode, filename):
        super().__init__(text, filename)
        self.mode = mode
        # The tokens that read as identifiers in this mode.
        reserved = KEYWORDS.union(EXT_KEYWORDS if mode == fg.EXT else fg.PRIMITIVES)
        self.names = {tok for tok, kind in self.kinds.items()
                      if kind == "ident" and tok not in reserved and tok[0] != "_"}

    def ident(self, i, what="identifier"):
        """The identifier at token `i`."""
        text = self.tokens[i]
        if text not in self.names:
            if self.kinds[text] != "ident" or text in KEYWORDS or \
                    (text in EXT_KEYWORDS and self.mode == fg.EXT):
                self.fail_found(f"expected {what}", i)
            if text.startswith("_"):
                self.fail_found("identifiers starting with '_' are reserved", i)
            self.fail(f"{text} requires extension mode", i)
        return text

    def skip(self, i, *texts):
        """The index after token `i` if it is one of `texts`, else `i`."""
        return i + 1 if self.tokens[i] in texts else i

    # -- declarations

    def program(self):
        toks, decls = self.tokens, []
        i = self.skip(self.expect_at(1, "main"), ";") if toks[0] == "package" else 0
        while toks[i] != "func" or toks[i + 1] != "main":
            if toks[i] == "type":
                d, i = self.type_decl(i)
            elif toks[i] == "func":
                d, i = self.func_decl(i)
            else:
                self.fail("missing func main" if toks[i] == EOF else "expected declaration", i)
            decls.append(d)
        main, i = self.main_body(self.expect_at(self.expect_at(i + 2, "("), ")"))
        if toks[i] != EOF:
            self.fail("trailing input after func main", i)
        return fg.Program(tuple(decls), main, self.mode)

    def type_decl(self, i):
        name = self.ident(i + 1, "type name")
        kw = self.tokens[i + 2]
        if kw == "struct":
            lit, j = self.struct_literal(i + 3)
        elif kw == "interface":
            lit, j = self.iface_literal(i + 3)
        else:
            self.fail("expected 'struct' or 'interface'", i + 2)
        return fg.TypeDecl(name, lit, self.span(i)), j

    def struct_literal(self, i):
        toks, fields = self.tokens, []
        i = self.expect_at(i, "{")
        while toks[i] != "}":
            fields.append((self.ident(i, "field name"), self.ident(i + 1, "type name")))
            i += 2
            if toks[i] in (";", ","):
                i += 1
            elif toks[i] != "}" and self.kinds[toks[i]] != "ident":
                self.fail("expected field declaration or '}'", i)
        return fg.StructType(tuple(fields)), i + 1

    def iface_literal(self, i):
        toks, specs = self.tokens, []
        i = self.expect_at(i, "{")
        while toks[i] != "}":
            m = self.ident(i, "method name")
            sig, i = self.signature(i + 1)
            specs.append(fg.MethodSpec(m, sig))
            i = self.skip(i, ";", ",")
        return fg.InterfaceType(tuple(specs)), i + 1

    def signature(self, i):
        """Parameters in parentheses, split by commas, a comma allowed after
        the last, then the result type."""
        toks, params = self.tokens, []
        i = self.expect_at(i, "(")
        while toks[i] != ")":
            params.append((self.ident(i, "parameter name"), self.ident(i + 1, "type name")))
            i += 2
            if toks[i] != ",":
                break
            i += 1
        i = self.expect_at(i, ")")
        return fg.MethodSig(tuple(params), self.ident(i, "type name")), i + 1

    def func_decl(self, i):
        recv_var = self.ident(self.expect_at(i + 1, "("), "receiver name")
        recv_type = self.ident(i + 3, "type name")
        name = self.ident(self.expect_at(i + 4, ")"), "method name")
        sig, j = self.signature(i + 6)
        body, j = self.expr(self.expect_at(self.expect_at(j, "{"), "return"))
        j = self.expect_at(self.skip(j, ";"), "}")
        return fg.MethodDecl(recv_var, recv_type, name, sig, body, self.span(i)), j

    def main_body(self, i):
        toks, bindings = self.tokens, []
        i = self.expect_at(i, "{")
        # `var x T = e` bindings until `var _ = e` or `_ = e`.
        while True:
            j = self.skip(i, "var")
            if j > i and toks[j] != "_":
                if self.mode != fg.EXT:
                    self.fail("var bindings in main require extension mode", j)
                lhs = (self.ident(j, "variable name"), self.ident(j + 1, "type name"))
                j += 2
            elif toks[j] == "_":
                lhs = None
                j += 1
            else:
                self.fail("expected 'var' binding or '_ = e' in main", j)
            e, i = self.expr(self.expect_at(j, "="))
            i = self.skip(i, ";")
            if lhs is None:
                break
            bindings.append((*lhs, e))
        i = self.expect_at(i, "}")
        # Desugar var bindings by substitution: each right-hand side sees
        # the bindings before it.
        env = {}
        for x, _t, rhs in bindings:
            env[x] = fg.subst(rhs, env)
        return fg.subst(e, env), i

    # -- expressions

    def expr(self, i):
        """An expression: binary operators by PREC over postfix chains over
        primary expressions, read in one loop.  `frames` holds the
        constructs still open, each waiting for an expression and holding
        the binding power of the one it interrupts: a binary operator's right
        operand, a parenthesised expression, and a struct literal's or a
        call's next argument.  So input of any depth parses."""
        toks, kinds, ext = self.tokens, self.kinds, self.mode == fg.EXT
        frames = []
        push, pop = frames.append, frames.pop
        min_prec, e = 1, None  # of the innermost expression being read
        while True:
            if e is None:  # a primary expression, or a construct it opens
                text = toks[i]
                kind = kinds[text]
                if kind == "num":
                    if not ext:
                        self.fail("int literals require extension mode", i)
                    e = fg.IntLit(self.number(i), self.span(i))
                    i += 1
                elif text in EXT_KEYWORDS and ext:
                    e = fg.BoolLit(text == "true", self.span(i))
                    i += 1
                elif text == "(":
                    push((_PAREN, min_prec))
                    min_prec = 1
                    i += 1
                    continue
                elif kind == "ident" and text not in KEYWORDS:
                    name = self.ident(i)
                    if toks[i + 1] != "{":
                        e = fg.Var(name, self.span(i))
                        i += 1
                    elif toks[i + 2] == "}":
                        e = fg.StructLit(name, (), self.span(i))
                        i += 3
                    else:
                        push((_STRUCT, min_prec, [], name, self.span(i)))
                        min_prec = 1
                        i += 2
                        continue
                else:
                    self.fail_found("expected expression", i)
            while toks[i] == ".":
                dot = self.span(i)
                i += 1
                if toks[i] == "(":
                    t = self.ident(i + 1, "type name")
                    i = self.expect_at(i + 2, ")")
                    e = fg.Assert(e, t, dot)
                    continue
                name = self.ident(i, "field or method name")
                if toks[i + 1] != "(":
                    e = fg.Select(e, name, dot)
                    i += 1
                elif toks[i + 2] == ")":
                    e = fg.Call(e, name, (), dot)
                    i += 3
                else:
                    push((_CALL, min_prec, [], e, name, dot))
                    min_prec, e = 1, None
                    i += 2
                    break
            else:
                # Binary operators; then hand each finished expression to
                # the innermost open construct.
                first = True
                while True:
                    prec = PREC.get(toks[i], 0)
                    if prec >= min_prec and (first or prec != PREC_CMP):
                        if not ext:
                            self.fail(f"operator {toks[i]!r} requires extension mode", i)
                        push((_BIN, min_prec, e, i))
                        min_prec, e = prec + 1, None
                        i += 1
                        break
                    if not frames:
                        return e, i
                    f = pop()
                    tag, min_prec = f[0], f[1]
                    if tag is _BIN:
                        op = f[3]
                        e = fg.BinOp(toks[op], f[2], e, self.span(op))
                        first = False
                        continue
                    if tag is _PAREN:
                        i = self.expect_at(i, ")")
                        break
                    args = f[2]
                    args.append(e)
                    close = "}" if tag is _STRUCT else ")"
                    if toks[i] == "," and toks[i + 1] != close:
                        push(f)
                        min_prec, e = 1, None
                        i += 1
                        break
                    i = self.expect_at(self.skip(i, ","), close)
                    if tag is _STRUCT:
                        e = fg.StructLit(f[3], tuple(args), f[4])
                    else:
                        e = fg.Call(f[3], f[4], tuple(args), f[5])
                    break


@collector_paused
def parse_program(text, mode=fg.CORE, filename="<input>"):
    """Parse FG source text into a Program.  Raises FgError with span-carrying
    diagnostics on lexical or syntactic failure."""
    return _Parser(text, mode, filename).program()


def parse_expr(text, mode=fg.CORE, filename="<input>"):
    p = _Parser(text, mode, filename)
    e, i = p.expr(0)
    if p.tokens[i] != EOF:
        p.fail("trailing input after expression", i)
    return e


# ---------------------------------------------------------------------------
# Canonical printer

def print_expr(e):
    """Canonical text of an expression, by node type.  The stack holds text
    still to be written and (expression, precedence) pairs still to be
    printed, so values of any depth print."""
    out = []
    stack = [(e, 0)]
    push, write = stack.append, out.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            write(item)
            continue
        e, prec = item
        t = type(e)
        if t is fg.StructLit:
            write(e.type_name + "{")
            push("}")
            if len(e.args) == 1:
                push((e.args[0], 0))
            else:
                push_items(push, e.args, 0, ", ")
        elif t is fg.Var:
            write(e.name)
        elif t is fg.Call:
            push(")")
            push_items(push, e.args, 0, ", ")
            push(f".{e.method}(")
            push((e.recv, _PREC_POSTFIX))
        elif t is fg.Select:
            push(f".{e.fld}")
            push((e.recv, _PREC_POSTFIX))
        elif t is fg.Assert:
            push(f".({e.type_name})")
            push((e.expr, _PREC_POSTFIX))
        elif t is fg.BinOp:
            mine = PREC[e.op]
            if mine < prec:
                write("(")
                push(")")
            push((e.right, mine + 1))
            push(f" {e.op} ")
            # Comparisons do not chain: their left operand binds tighter too.
            push((e.left, mine + 1 if mine == PREC_CMP else mine))
        elif t is fg.IntLit:
            write(str(e.value))
        elif t is fg.BoolLit:
            write("true" if e.value else "false")
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
