"""Target-language AST, tuple constructors, validation and the stable text
format for emitted .tl programs.

Constructors are n-ary and saturated: `CtorApp` always carries exactly the
constructor's arguments, and patterns bind one variable per argument.
Tuples are the constructors Tup0..Tup32, printed with parenthesis syntax.

Every TL spelling of an FG name is made here, one namespace per kind of
name: constructors `K_T` and `Tup<n>`; method variables `m_T`; hoisted
helpers `to_U_T` (T up to interface U) and `from_T_U` (interface T down to
U); FG variables, kept as written or prefixed with `_`; fresh variables
`_0`, `_1`, ...  Each namespace is injective and no two meet, so a
translated program never binds a name twice, and its printed text reads
back with every name in its own role.

In a method variable or helper, `_` inside an FG name is written `__`, so
the separators are exactly the odd-length runs of `_`: one in a method
variable, two in a helper.  A method name's leading `K` is doubled, so no
method variable starts with `K_`.  An FG variable is prefixed when it
contains `_`, is a keyword or looks like a tuple constructor; FG names
start with a letter, so a prefixed name never meets a fresh variable.
"""

from __future__ import annotations

import re

from dataclasses import dataclass

from .diagnostics import DUP_BINDING, SYNTAX, Diagnostic, FgError

MAX_TUPLE = 32

_TL_KEYWORDS = {"let", "in", "case", "of", "true", "false"}


@dataclass(frozen=True)
class TLVar:
    name: str


@dataclass(frozen=True)
class MethodVar:
    name: str


@dataclass(frozen=True)
class CtorApp:
    ctor: str
    args: tuple


@dataclass(frozen=True)
class Lam:
    var: str
    body: object


@dataclass(frozen=True)
class App:
    fn: object
    arg: object


@dataclass(frozen=True)
class Pattern:
    ctor: str
    vars: tuple


@dataclass(frozen=True)
class Clause:
    pat: Pattern
    body: object


@dataclass(frozen=True)
class Case:
    scrut: object
    clauses: tuple


@dataclass(frozen=True)
class TLInt:
    value: int


@dataclass(frozen=True)
class TLBool:
    value: bool


@dataclass(frozen=True)
class TLPrim:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class TLProgram:
    bindings: tuple  # ordered (name, Lam) pairs
    main: object

    def method_subst(self):
        """The method substitution built from the let bindings."""
        mu = {}
        for name, lam in self.bindings:
            if name in mu:
                raise FgError(Diagnostic(DUP_BINDING, f"duplicate let binding {name}"))
            mu[name] = lam
        return mu


def tuple_ctor(k: int) -> str:
    if not 0 <= k <= MAX_TUPLE:
        raise ValueError(f"tuple arity {k} out of range 0..{MAX_TUPLE}")
    return f"Tup{k}"


_TUPLE_RE = re.compile(r"^Tup(\d+)$")


def tuple_arity(ctor: str):
    """Arity if `ctor` is a tuple constructor, else None."""
    m = _TUPLE_RE.match(ctor)
    return int(m.group(1)) if m else None


def make_tuple(args) -> CtorApp:
    args = tuple(args)
    return CtorApp(tuple_ctor(len(args)), args)


def struct_ctor(name: str) -> str:
    return f"K_{name}"


def ctor_type(ctor: str):
    """The FG type whose constructor is `ctor`, or None."""
    return ctor[2:] if ctor.startswith("K_") else None


def _esc(name: str) -> str:
    return name.replace("_", "__")


def method_var_name(m: str, t_s: str) -> str:
    """Method variable bound to the declaration of method m on struct t_s."""
    m = _esc(m)
    if m.startswith("K"):
        m = "K" + m
    return f"{m}_{_esc(t_s)}"


def upcast_name(t: str, u_i: str) -> str:
    """Hoisted helper that packs a value of type t as interface u_i."""
    return f"to_{_esc(u_i)}_{_esc(t)}"


def downcast_name(t_i: str, u: str) -> str:
    """Hoisted helper that asserts an interface t_i value to type u."""
    return f"from_{_esc(t_i)}_{_esc(u)}"


def fg_var(x: str) -> str:
    """TL variable for the FG variable (or receiver, or parameter) x."""
    if "_" in x or x in _TL_KEYWORDS or tuple_arity(x) is not None:
        return "_" + x
    return x


def fresh_var(n: int) -> str:
    return f"_{n}"


def is_value(e) -> bool:
    if isinstance(e, (TLVar, MethodVar, TLInt, TLBool, Lam)):
        return True
    return isinstance(e, CtorApp) and all(is_value(a) for a in e.args)


# ---------------------------------------------------------------------------
# Structural validation


def _walk(e):
    """Every node of e in pre-order, with an explicit stack."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, CtorApp):
            stack.extend(reversed(e.args))
        elif isinstance(e, Lam):
            stack.append(e.body)
        elif isinstance(e, App):
            stack.append(e.arg)
            stack.append(e.fn)
        elif isinstance(e, Case):
            stack.extend(c.body for c in reversed(e.clauses))
            stack.append(e.scrut)
        elif isinstance(e, TLPrim):
            stack.append(e.right)
            stack.append(e.left)


def free_vars(e, bound=frozenset()):
    """Free ordinary variables (not method variables)."""
    if isinstance(e, TLVar):
        return set() if e.name in bound else {e.name}
    if isinstance(e, MethodVar) or isinstance(e, (TLInt, TLBool)):
        return set()
    if isinstance(e, CtorApp):
        out = set()
        for a in e.args:
            out |= free_vars(a, bound)
        return out
    if isinstance(e, Lam):
        return free_vars(e.body, bound | {e.var})
    if isinstance(e, App):
        return free_vars(e.fn, bound) | free_vars(e.arg, bound)
    if isinstance(e, Case):
        out = free_vars(e.scrut, bound)
        for c in e.clauses:
            out |= free_vars(c.body, bound | set(c.pat.vars))
        return out
    if isinstance(e, TLPrim):
        return free_vars(e.left, bound) | free_vars(e.right, bound)
    raise TypeError(f"not a TL expression: {e!r}")


def method_vars(e):
    return {n.name for n in _walk(e) if isinstance(n, MethodVar)}


def validate_program(prog: TLProgram):
    """Constructor-arity consistency, clause well-formedness, closure up to
    method variables.  Returns a list of human-readable problems."""
    problems = []
    arities = {}

    def see_ctor(name, arity, where):
        ta = tuple_arity(name)
        if ta is not None and ta != arity:
            problems.append(f"{where}: tuple constructor {name} used with arity {arity}")
            return
        if name in arities and arities[name] != arity:
            problems.append(
                f"{where}: constructor {name} used with arity {arity} and {arities[name]}")
        arities.setdefault(name, arity)

    bound = prog.method_subst()
    exprs = [("main", prog.main)] + [(name, lam) for name, lam in prog.bindings]
    for where, top in exprs:
        for node in _walk(top):
            if isinstance(node, CtorApp):
                see_ctor(node.ctor, len(node.args), where)
            elif isinstance(node, Case):
                heads = [c.pat.ctor for c in node.clauses]
                if len(set(heads)) != len(heads):
                    problems.append(f"{where}: duplicate clause constructors {heads}")
                for c in node.clauses:
                    if len(set(c.pat.vars)) != len(c.pat.vars):
                        problems.append(f"{where}: non-linear pattern {c.pat}")
                    see_ctor(c.pat.ctor, len(c.pat.vars), where)
        for fv in sorted(free_vars(top)):
            problems.append(f"{where}: free variable {fv}")
        for mv in sorted(method_vars(top)):
            if mv not in bound:
                problems.append(f"{where}: unbound method variable {mv}")
    return problems


# ---------------------------------------------------------------------------
# Printer

_PREC_LOW, _PREC_OR, _PREC_AND, _PREC_CMP, _PREC_APP, _PREC_ATOM = 0, 1, 2, 3, 4, 5


def _print(e, prec):
    if isinstance(e, (TLVar, MethodVar)):
        return e.name
    if isinstance(e, TLInt):
        return str(e.value)
    if isinstance(e, TLBool):
        return "true" if e.value else "false"
    if isinstance(e, CtorApp):
        if tuple_arity(e.ctor) is not None:
            inner = ", ".join(_print(a, _PREC_LOW) for a in e.args)
            if len(e.args) == 1:
                inner += ","
            return f"({inner})"
        if not e.args:
            return e.ctor
        s = e.ctor + " " + " ".join(_print(a, _PREC_ATOM) for a in e.args)
        return f"({s})" if prec >= _PREC_ATOM else s
    if isinstance(e, Lam):
        s = f"\\{e.var} -> {_print(e.body, _PREC_LOW)}"
        return f"({s})" if prec > _PREC_LOW else s
    if isinstance(e, App):
        s = f"{_print(e.fn, _PREC_APP)} {_print(e.arg, _PREC_ATOM)}"
        return f"({s})" if prec >= _PREC_ATOM else s
    if isinstance(e, Case):
        clauses = "; ".join(
            f"{_print_pat(c.pat)} -> {_print(c.body, _PREC_LOW)}" for c in e.clauses)
        s = f"case {_print(e.scrut, _PREC_LOW)} of {{ {clauses} }}" if clauses else \
            f"case {_print(e.scrut, _PREC_LOW)} of {{ }}"
        return f"({s})" if prec > _PREC_LOW else s
    if isinstance(e, TLPrim):
        mine = {"||": _PREC_OR, "&&": _PREC_AND, "==": _PREC_CMP, "<": _PREC_CMP}[e.op]
        if e.op in ("==", "<"):
            left, right = _print(e.left, mine + 1), _print(e.right, mine + 1)
        else:
            left, right = _print(e.left, mine), _print(e.right, mine + 1)
        s = f"{left} {e.op} {right}"
        return f"({s})" if prec > mine else s
    raise TypeError(f"not a TL expression: {e!r}")


def _print_pat(p: Pattern):
    if tuple_arity(p.ctor) is not None:
        inner = ", ".join(p.vars)
        if len(p.vars) == 1:
            inner += ","
        return f"({inner})"
    return " ".join((p.ctor,) + p.vars) if p.vars else p.ctor


def print_expr(e) -> str:
    return _print(e, _PREC_LOW)


def print_program(prog: TLProgram) -> str:
    """Canonical text: let bindings in declaration order, then the main
    expression.  print . parse . print is the identity on this format."""
    if not prog.bindings:
        return print_expr(prog.main) + "\n"
    lines = ["let"]
    for i, (name, lam) in enumerate(prog.bindings):
        sep = ";" if i < len(prog.bindings) - 1 else ""
        lines.append(f"  {name} = {print_expr(lam)}{sep}")
    lines.append("in")
    lines.append(print_expr(prog.main))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parser

_TL_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|--[^\n]*)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>->|==|&&|\|\||[\\(){},;<=])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _is_ctor_name(name):
    return name.startswith("K_") or tuple_arity(name) is not None


class _TLParser:
    def __init__(self, text):
        self.tokens = []
        for m in _TL_TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise FgError(Diagnostic(
                    SYNTAX, f"unexpected character {m.group()!r} at offset {m.start()}"))
            if kind != "ws":
                self.tokens.append((kind, m.group()))
        self.tokens.append(("eof", ""))
        self.i = 0
        self.let_bound = set()
        self.fresh = 0

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        t = self.cur
        self.i += 1
        return t

    def fail(self, msg):
        raise FgError(Diagnostic(SYNTAX, f"{msg}, found {self.cur[1]!r}"))

    def at(self, text):
        return self.tokens[self.i][1] == text  # the eof token's text is ""

    def accept(self, text):
        if self.tokens[self.i][1] == text:
            self.i += 1
            return True
        return False

    def expect(self, text):
        if not self.accept(text):
            self.fail(f"expected {text!r}")

    def ident(self):
        kind, text = self.cur
        if kind != "ident" or text in _TL_KEYWORDS:
            self.fail("expected identifier")
        self.advance()
        return text

    def fresh_var(self):
        self.fresh += 1
        return f"_p{self.fresh}"

    def program(self):
        bindings = []
        if self.accept("let"):
            # Binding names are known up front, so references parse as
            # MethodVars even in earlier bindings (mutual recursion).  `=`
            # occurs only after a binding name, so they are the identifiers
            # just before an `=`.
            toks = self.tokens
            self.let_bound.update(a[1] for a, b in zip(toks, toks[1:])
                                  if b[1] == "=" and a[0] == "ident")
            while True:
                name = self.ident()
                self.expect("=")
                e = self.expr(())
                if not isinstance(e, Lam):
                    self.fail(f"binding {name} must be a lambda")
                bindings.append((name, e))
                if not self.accept(";"):
                    break
            self.expect("in")
        main = self.expr(())
        if self.cur[0] != "eof":
            self.fail("trailing input")
        return TLProgram(tuple(bindings), main)

    def expr(self, scope):
        if self.accept("\\"):
            return self.lam(scope)
        if self.at("case"):
            return self.case(scope)
        return self.or_expr(scope)

    def lam(self, scope):
        if self.at("("):
            # Pattern-lambda sugar: \(x, y) -> e desugars to a fresh-variable
            # lambda over a tuple case.
            pat = self.pattern()
            self.expect("->")
            body = self.expr(scope + pat.vars)
            x = self.fresh_var()
            return Lam(x, Case(TLVar(x), (Clause(pat, body),)))
        x = self.ident()
        self.expect("->")
        return Lam(x, self.expr(scope + (x,)))

    def case(self, scope):
        self.expect("case")
        scrut = self.expr(scope)
        self.expect("of")
        self.expect("{")
        clauses = []
        while not self.at("}"):
            pat = self.pattern()
            self.expect("->")
            body = self.expr(scope + pat.vars)
            clauses.append(Clause(pat, body))
            if not self.accept(";"):
                break
        self.expect("}")
        return Case(scrut, tuple(clauses))

    def pattern(self):
        if self.accept("("):
            vars_ = []
            trailing = False
            while not self.at(")"):
                vars_.append(self.ident())
                trailing = self.accept(",")
                if not trailing:
                    break
            self.expect(")")
            return Pattern(tuple_ctor(len(vars_)), tuple(vars_))
        name = self.ident()
        if not _is_ctor_name(name):
            self.fail(f"expected constructor pattern, got {name!r}")
        vars_ = []
        while self.cur[0] == "ident" and self.cur[1] not in _TL_KEYWORDS and \
                not _is_ctor_name(self.cur[1]):
            vars_.append(self.ident())
        return Pattern(name, tuple(vars_))

    def or_expr(self, scope):
        e = self.and_expr(scope)
        while self.accept("||"):
            e = TLPrim("||", e, self.and_expr(scope))
        return e

    def and_expr(self, scope):
        e = self.cmp_expr(scope)
        while self.accept("&&"):
            e = TLPrim("&&", e, self.cmp_expr(scope))
        return e

    def cmp_expr(self, scope):
        e = self.app_expr(scope)
        if self.at("==") or self.at("<"):
            op = self.advance()[1]
            e = TLPrim(op, e, self.app_expr(scope))
        return e

    def app_expr(self, scope):
        e = self.atom(scope)
        parts = [e]
        while self._at_atom():
            parts.append(self.atom(scope))
        head = parts[0]
        if isinstance(head, CtorApp) and not head.args and tuple_arity(head.ctor) is None:
            return CtorApp(head.ctor, tuple(parts[1:]))
        for p in parts[1:]:
            head = App(head, p)
        return head

    def _at_atom(self):
        kind, text = self.cur
        if kind in ("num",):
            return True
        if kind == "ident":
            return text not in (_TL_KEYWORDS - {"true", "false"})
        return text == "(" or text == "\\"

    def atom(self, scope):
        kind, text = self.cur
        if kind == "num":
            self.advance()
            return TLInt(int(text))
        if text == "true" or text == "false":
            self.advance()
            return TLBool(text == "true")
        if self.accept("("):
            if self.accept(")"):
                return CtorApp(tuple_ctor(0), ())
            first = self.expr(scope)
            if self.accept(","):
                items = [first]
                while not self.at(")"):
                    items.append(self.expr(scope))
                    if not self.accept(","):
                        break
                self.expect(")")
                return make_tuple(items)
            self.expect(")")
            return first
        if text == "\\":
            self.advance()
            return self.lam(scope)
        if kind == "ident":
            name = self.ident()
            if _is_ctor_name(name):
                return CtorApp(name, ())
            if name in scope:
                return TLVar(name)
            if name in self.let_bound:
                return MethodVar(name)
            return TLVar(name)
        self.fail("expected expression")


def parse_program(text: str) -> TLProgram:
    return _TLParser(text).program()


def parse_expr(text: str, let_bound=()):
    p = _TLParser(text)
    p.let_bound = set(let_bound)
    e = p.expr(())
    if p.cur[0] != "eof":
        p.fail("trailing input")
    return e
