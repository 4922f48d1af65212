"""Target-language AST and its term structure (`children`, `remake`,
`subst`), tuple constructors, validation and the stable text format for
emitted .tl programs.

Constructors are n-ary and saturated: `CtorApp` always carries exactly the
constructor's arguments, and patterns bind one variable per argument.
Tuples are the constructors Tup0, Tup1, ..., printed with parenthesis syntax.

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

from .diagnostics import (
    DUP_BINDING, EOF, PREC, PREC_CMP, Diagnostic, FgError, TokenReader, lexicon, push_items,
    rebuild, record,
)

_TL_KEYWORDS = {"let", "in", "case", "of", "true", "false"}


@record
class TLVar:
    name: str


@record
class MethodVar:
    name: str


@record
class CtorApp:
    ctor: str
    args: tuple


@record
class Lam:
    var: str
    body: object


@record
class App:
    fn: object
    arg: object


@record
class Pattern:
    ctor: str
    vars: tuple


@record
class Clause:
    pat: Pattern
    body: object


@record
class Case:
    scrut: object
    clauses: tuple


@record
class TLInt:
    value: int


@record
class TLBool:
    value: bool


@record
class TLPrim:
    op: str
    left: object
    right: object


@record
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


def children(e):
    """The subterms of `e` in evaluation order, each with the variables `e`
    binds over it: function then argument, constructor arguments left to
    right, a lambda's body, a case's scrutinee then its clause bodies, and
    the left operand before the right."""
    t = type(e)
    if t is App:
        return ((e.fn, ()), (e.arg, ()))
    if t is CtorApp:
        return tuple([(a, ()) for a in e.args])
    if t is Lam:
        return ((e.body, (e.var,)),)
    if t is Case:
        return ((e.scrut, ()), *[(c.body, c.pat.vars) for c in e.clauses])
    if t is TLPrim:
        return ((e.left, ()), (e.right, ()))
    if t is TLVar or t is MethodVar or t is TLInt or t is TLBool:
        return ()
    raise TypeError(f"not a TL expression: {e!r}")


def remake(e, subs):
    """`e` with its subterms, in `children` order, replaced by `subs`."""
    t = type(e)
    if t is App:
        return App(subs[0], subs[1])
    if t is CtorApp:
        return CtorApp(e.ctor, tuple(subs))
    if t is Lam:
        return Lam(e.var, subs[0])
    if t is Case:
        return Case(subs[0], tuple(map(Clause, [c.pat for c in e.clauses], subs[1:])))
    if t is TLPrim:
        return TLPrim(e.op, subs[0], subs[1])
    return e


def subst(e, env):
    """`e` with each free variable bound in `env` replaced by its binding,
    all at once.  A binder shadows the bindings of the variables it binds;
    the free variables of a binding are not renamed away from the binders
    it lands under.  Terms of any depth substitute (see `rebuild`)."""
    def scoped(item):
        e, env = item
        if env:
            return [(s, {x: v for x, v in env.items() if x not in xs} if xs else env)
                    for s, xs in children(e)]
        return None

    def build(item, subs):
        e, env = item
        if subs:
            return remake(e, subs)
        return env.get(e.name, e) if type(e) is TLVar else e

    return rebuild((e, env), scoped, build)


def tuple_ctor(k: int) -> str:
    return f"Tup{k}"


def tuple_arity(ctor: str):
    """Arity if `ctor` is a tuple constructor, as `tuple_ctor` spells it:
    `Tup` then ASCII digits with no leading zero.  Else None."""
    if ctor.startswith("Tup"):
        n = ctor[3:]
        if n.isascii() and n.isdecimal() and (n[0] != "0" or n == "0"):
            return int(n)
    return None


def make_tuple(args) -> CtorApp:
    args = tuple(args)
    return CtorApp(tuple_ctor(len(args)), args)


def struct_ctor(name: str) -> str:
    return f"K_{name}"


def ctor_type(ctor: str):
    """The FG type whose constructor is `ctor`, or None."""
    return ctor[2:] if ctor.startswith("K_") else None


def _is_ctor_name(name):
    return name.startswith("K_") or tuple_arity(name) is not None


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


# ---------------------------------------------------------------------------
# Structural validation


def _bind(scope, names, by):
    """Count each of `names` as bound by `by` more open binders."""
    for x in names:
        scope[x] = scope.get(x, 0) + by


def validate_program(prog: TLProgram):
    """Constructor names and arities, clause well-formedness, closure up to
    method variables.  Returns a list of human-readable problems: for main
    and then each binding, the structural ones in pre-order, then the free
    variables and the unbound method variables, each sorted.

    The walk reads each node's subterms by its type, in `children` order,
    so it makes no `children` tuple.  A (constructor, arity) pair is
    checked again only while it has raised a problem, so each problem is
    reported at every occurrence."""
    problems = []
    arities = {}
    passed = set()  # the (constructor, arity) pairs that raised no problem

    def see_ctor(name, arity, where):
        if not _is_ctor_name(name):
            problems.append(f"{where}: {name} is not a constructor name")
            return
        ta = tuple_arity(name)
        if ta is not None and ta != arity:
            problems.append(f"{where}: tuple constructor {name} used with arity {arity}")
            return
        if name in arities and arities[name] != arity:
            problems.append(
                f"{where}: constructor {name} used with arity {arity} and {arities[name]}")
            return
        arities[name] = arity
        passed.add((name, arity))

    bound = prog.method_subst()
    for where, top in [("main", prog.main), *prog.bindings]:
        free, mvars = set(), set()
        scope = {}  # variable -> the binders in scope that bind it
        # Terms in pre-order.  A lambda counts its variable in scope when
        # its body is pushed and leaves the variable, a str, to count it out;
        # a clause body sits between (names, +1) and (names, -1).
        stack = [top]
        push, pop = stack.append, stack.pop
        while stack:
            e = pop()
            t = type(e)
            if t is TLVar:
                if not scope.get(e.name):
                    free.add(e.name)
            elif t is App:
                push(e.arg)
                push(e.fn)
            elif t is MethodVar:
                mvars.add(e.name)
            elif t is CtorApp:
                args = e.args
                if (e.ctor, len(args)) not in passed:
                    see_ctor(e.ctor, len(args), where)
                stack += reversed(args)
            elif t is Lam:
                x = e.var
                scope[x] = scope.get(x, 0) + 1
                push(x)
                push(e.body)
            elif t is str:
                scope[e] -= 1
            elif t is Case:
                clauses = e.clauses
                heads = [c.pat.ctor for c in clauses]
                if len(set(heads)) != len(heads):
                    problems.append(f"{where}: duplicate clause constructors {heads}")
                for c in clauses:
                    pat = c.pat
                    if len(set(pat.vars)) != len(pat.vars):
                        problems.append(f"{where}: non-linear pattern {pat}")
                    if (pat.ctor, len(pat.vars)) not in passed:
                        see_ctor(pat.ctor, len(pat.vars), where)
                for c in reversed(clauses):
                    xs = c.pat.vars
                    if xs:
                        stack += [(xs, -1), c.body, (xs, 1)]
                    else:
                        push(c.body)
                push(e.scrut)
            elif t is tuple:
                _bind(scope, *e)
            elif t is TLPrim:
                push(e.right)
                push(e.left)
            elif t is not TLInt and t is not TLBool:
                raise TypeError(f"not a TL expression: {e!r}")
        problems.extend(f"{where}: free variable {x}" for x in sorted(free))
        problems.extend(f"{where}: unbound method variable {m}"
                        for m in sorted(mvars - bound.keys()))
    return problems


# ---------------------------------------------------------------------------
# Printer

_PREC_LOW, _PREC_APP, _PREC_ATOM = 0, 4, 5


def _print_pat(p: Pattern):
    if tuple_arity(p.ctor) is not None:
        inner = ", ".join(p.vars)
        if len(p.vars) == 1:
            inner += ","
        return f"({inner})"
    return " ".join((p.ctor,) + p.vars) if p.vars else p.ctor


def print_expr(e) -> str:
    """The text of an expression.  The stack holds text still to be written
    and (expression, precedence) pairs still to be printed, so values of any
    depth print."""
    out = []
    stack = [(e, _PREC_LOW)]
    push, write = stack.append, out.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            write(item)
            continue
        e, prec = item
        t = type(e)
        if t is TLVar or t is MethodVar:
            write(e.name)
        elif t is App:
            _wrap(write, push, prec >= _PREC_ATOM)
            push((e.arg, _PREC_ATOM))
            push(" ")
            push((e.fn, _PREC_APP))
        elif t is Case:
            _wrap(write, push, prec > _PREC_LOW)
            write("case ")
            push(" }")
            for i in range(len(e.clauses) - 1, -1, -1):
                c = e.clauses[i]
                push((c.body, _PREC_LOW))
                push(f"{_print_pat(c.pat)} -> ")
                if i:
                    push("; ")
            push(" of { " if e.clauses else " of {")
            push((e.scrut, _PREC_LOW))
        elif t is CtorApp:
            if tuple_arity(e.ctor) is not None:
                write("(")
                push(",)" if len(e.args) == 1 else ")")
                push_items(push, e.args, _PREC_LOW, ", ")
            elif not e.args:
                write(e.ctor)
            else:
                _wrap(write, push, prec >= _PREC_APP)
                write(e.ctor + " ")
                push_items(push, e.args, _PREC_ATOM, " ")
        elif t is Lam:
            _wrap(write, push, prec > _PREC_LOW)
            write(f"\\{e.var} -> ")
            push((e.body, _PREC_LOW))
        elif t is TLInt:
            write(str(e.value))
        elif t is TLBool:
            write("true" if e.value else "false")
        elif t is TLPrim:
            mine = PREC[e.op]
            _wrap(write, push, prec > mine)
            push((e.right, mine + 1))
            push(f" {e.op} ")
            # Comparisons do not chain: their left operand binds tighter too.
            push((e.left, mine + 1 if mine == PREC_CMP else mine))
        else:
            raise TypeError(f"not a TL expression: {e!r}")
    return "".join(out)


def _wrap(write, push, parens):
    """Open a parenthesis now and push its closing one, if `parens`."""
    if parens:
        write("(")
        push(")")


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

# Frames of the expression reader; see `_TLParser.expr`.
_BIN, _APP, _LAM, _PAREN, _CASE = "bin", "app", "lam", "paren", "case"

# Classes of tokens, one for each distinct token of a text; see
# `_TLParser.expr`.  Those before _KEYWORD open an atom, and the first two
# are the names a binder may take.
_NAME, _CTOR, _OPEN, _NUM, _TRUE, _FALSE, _LAMBDA, _KEYWORD, _OTHER = range(9)
_CLASS_OF = {"(": _OPEN, "true": _TRUE, "false": _FALSE, "\\": _LAMBDA,
             **dict.fromkeys(_TL_KEYWORDS - {"true", "false"}, _KEYWORD)}


def _token_class(tok, kind):
    if tok in _CLASS_OF:
        return _CLASS_OF[tok]
    if kind == "num":
        return _NUM
    if kind != "ident":
        return _OTHER
    return _CTOR if _is_ctor_name(tok) else _NAME


class _TLParser(TokenReader):
    LEX, CHUNKS, KINDS = lexicon(r"--[^\n]*", ident=r"[A-Za-z_][A-Za-z0-9_]*",
                                 op=r"->|==|&&|\|\||[\\(){},;<=]", num=r"[0-9]+")

    def __init__(self, text, filename="<input>"):
        super().__init__(text, filename)
        self.classes = {tok: _token_class(tok, kind) for tok, kind in self.kinds.items()}
        self.let_bound = set()
        self.fresh = 0
        # One leaf per distinct token, shared by all its occurrences: a
        # variable or nullary constructor in `leaves`, a method variable in
        # `mvars`.
        self.leaves, self.mvars = {}, {}

    def fresh_var(self):
        self.fresh += 1
        return f"_p{self.fresh}"

    def name(self, i):
        """The name at token `i`."""
        tok = self.tokens[i]
        if self.classes[tok] > _CTOR:
            self.fail_found("expected identifier", i)
        return tok

    def program(self):
        toks, bindings = self.tokens, {}
        i = 0
        if toks[0] == "let":
            # Binding names are known up front, so references parse as
            # MethodVars even in earlier bindings (mutual recursion).  `=`
            # occurs only after a binding name, so they are the identifiers
            # just before an `=`.
            kinds = self.kinds
            self.let_bound.update(a for a, b in zip(toks, toks[1:])
                                  if b == "=" and kinds[a] == "ident")
            sep = ";"
            while sep == ";":
                i += 1
                name = self.name(i)
                if name in bindings:
                    raise FgError(Diagnostic(
                        DUP_BINDING, f"duplicate let binding {name}", self.span(i)))
                e, i = self.expr(self.expect_at(i + 1, "="))
                if not isinstance(e, Lam):
                    self.fail_found(f"binding {name} must be a lambda", i)
                bindings[name] = e
                sep = toks[i]
            i = self.expect_at(i, "in")
        main, i = self.expr(i)
        if toks[i] != EOF:
            self.fail_found("trailing input", i)
        return TLProgram(tuple(bindings.items()), main)

    def expr(self, i):
        """An expression, read in one loop.  `frames` holds the constructs
        still open, each waiting for an expression: a lambda's body, a
        case's scrutinee or clause body, a parenthesis or tuple, a binary
        expression at its binding power (its left operand and operator once
        read), and an application whose next atom opens with `(` or `\\`.
        So input of any depth parses.  The scope is the binders of the open
        frames: `scope` counts, for each variable, the frames binding it."""
        toks, classes, let_bound = self.tokens, self.classes, self.let_bound
        leaves, mvars = self.leaves, self.mvars
        frames = []
        push, pop = frames.append, frames.pop
        scope = {}
        start, parts = True, None
        while True:
            tok = toks[i]
            if start:  # `\` and `case` open only a whole expression
                if tok == "\\":
                    if toks[i + 1] == "(":
                        # Pattern-lambda sugar: \(x, y) -> e desugars to a
                        # fresh-variable lambda over a tuple case.
                        binder, i = self.pattern(i + 1)
                        bound = binder.vars
                    else:
                        i += 1
                        binder = self.name(i)
                        bound = (binder,)
                        i += 1
                    i = self.expect_at(i, "->")
                    push((_LAM, binder, bound))
                    _bind(scope, bound, 1)
                    continue
                if tok == "case":
                    i += 1
                    push([_CASE, None, [], None])
                    continue
                push([_BIN, 1, None, None])
                start, parts = False, []
            c = classes[tok]
            if c < _KEYWORD or not parts:  # the atoms of an application
                if c == _NAME:
                    if tok in let_bound and not scope.get(tok):
                        parts.append(mvars.get(tok) or mvars.setdefault(tok, MethodVar(tok)))
                    else:
                        parts.append(leaves.get(tok) or leaves.setdefault(tok, TLVar(tok)))
                elif c == _CTOR:
                    parts.append(leaves.get(tok) or leaves.setdefault(tok, CtorApp(tok, ())))
                elif c == _OPEN:
                    if toks[i + 1] == ")":
                        i += 1
                        tok = tuple_ctor(0)
                        parts.append(leaves.get(tok) or leaves.setdefault(tok, CtorApp(tok, ())))
                    else:
                        push((_APP, parts))
                        push((_PAREN, []))
                        start = True
                elif c == _LAMBDA:  # read on from the `\`
                    push((_APP, parts))
                    start = True
                    continue
                elif c == _NUM:
                    parts.append(TLInt(self.number(i)))
                elif c == _TRUE or c == _FALSE:
                    parts.append(TLBool(c == _TRUE))
                elif c == _KEYWORD:
                    self.fail_found("expected identifier", i)
                else:
                    self.fail_found("expected expression", i)
                i += 1
                continue
            e = parts[0]
            if len(parts) > 1:
                # A struct constructor takes the atoms after it; a tuple
                # constructor takes its arguments in parentheses.
                if type(e) is CtorApp and not e.args and e.ctor.startswith("K_"):
                    e = CtorApp(e.ctor, tuple(parts[1:]))
                else:
                    for p in parts[1:]:
                        e = App(e, p)
            # Hand the finished expression to the innermost open construct,
            # until one reads on.
            while frames:
                f = pop()
                tag = f[0]
                if tag is _BIN:
                    if f[3] is not None:
                        e = TLPrim(f[3], f[2], e)
                    tok = toks[i]
                    prec = PREC.get(tok, 0)
                    if prec >= f[1] and (f[3] is None or prec != PREC_CMP):
                        f[2], f[3] = e, tok
                        i += 1
                        push(f)
                        push([_BIN, prec + 1, None, None])
                        parts = []
                        break
                elif tag is _APP:
                    parts = f[1]
                    parts.append(e)
                    break
                elif tag is _LAM:
                    binder = f[1]
                    _bind(scope, f[2], -1)
                    if type(binder) is str:
                        e = Lam(binder, e)
                    else:
                        x = self.fresh_var()
                        e = Lam(x, Case(TLVar(x), (Clause(binder, e),)))
                elif tag is _PAREN:
                    items = f[1]
                    items.append(e)
                    comma = toks[i] == ","
                    if comma:
                        i += 1
                        if toks[i] != ")":
                            push(f)
                            start = True
                            break
                    i = self.expect_at(i, ")")
                    if comma or len(items) > 1:
                        e = make_tuple(items)
                else:
                    if f[1] is None:  # the scrutinee
                        f[1] = e
                        i = self.expect_at(self.expect_at(i, "of"), "{")
                        more = True
                    else:
                        _bind(scope, f[3].vars, -1)
                        f[2].append(Clause(f[3], e))
                        more = toks[i] == ";"
                        if more:
                            i += 1
                    if more and toks[i] != "}":
                        pat, i = self.pattern(i)
                        f[3] = pat
                        i = self.expect_at(i, "->")
                        push(f)
                        _bind(scope, pat.vars, 1)
                        start = True
                        break
                    i = self.expect_at(i, "}")
                    e = Case(f[1], tuple(f[2]))
            else:
                return e, i

    def pattern(self, i):
        toks, classes = self.tokens, self.classes
        if toks[i] == "(":
            i += 1
            vars_ = []
            while toks[i] != ")":
                vars_.append(self.name(i))
                i += 1
                if toks[i] != ",":
                    break
                i += 1
            return Pattern(tuple_ctor(len(vars_)), tuple(vars_)), self.expect_at(i, ")")
        name = self.name(i)
        i += 1
        if classes[name] == _NAME:
            self.fail_found(f"expected constructor pattern, got {name!r}", i)
        start = i
        while classes[toks[i]] == _NAME:
            i += 1
        return Pattern(name, tuple(toks[start:i])), i


def parse_program(text: str, filename="<input>") -> TLProgram:
    """Parse TL text.  Raises FgError with a span-carrying diagnostic on
    lexical or syntactic failure."""
    return _TLParser(text, filename).program()


def parse_expr(text: str, let_bound=()):
    p = _TLParser(text)
    p.let_bound = set(let_bound)
    e, i = p.expr(0)
    if p.tokens[i] != EOF:
        p.fail_found("trailing input", i)
    return e
