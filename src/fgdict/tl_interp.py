"""Small-step semantics for the target language under a method substitution,
run as a fuel-bounded abstract machine.

Axiom rules (beta, case selection, method unfolding, primitive operators)
cost one step each; context descent is free.  A method variable in function
position unfolds immediately (`Y E -> mu(Y) E`), before its argument is
reduced, which keeps the strategy deterministic.  That holds also when the
method variable is the value of the function expression.

The machine holds a control term, an environment of lambda- and
pattern-bound variables, and the evaluation context as an explicit stack of
frames.  Lambdas evaluate to closures; a free variable is a value.  Closures
are read back to terms, by substitution, only for the final value, stuck
details, `tl_step` and traces.  Binding is lexical, so the machine and the
substitution semantics differ only where a value carrying a free variable
is substituted under a binder of that name, which a closed program never
does.
"""

from __future__ import annotations

from . import tl_ast as tl
from .outcome import (  # noqa: F401  (re-exported outcome vocabulary)
    BAD_PRIM, AlreadyValue, OutOfFuel, Stepped, Stuck, StuckOutcome, Value,
    _Stuck, check_fuel, prim, step_once, tracer,
)
from .tl_ast import App, Case, Clause, CtorApp, Lam, MethodVar, TLBool, TLInt, TLPrim, TLVar

MATCH_FAILURE = "match-failure"
UNBOUND_METHOD = "unbound-method"
NON_FUNCTION = "non-function-application"
UNBOUND_VAR = "unbound-variable"


def subst(e, x, v):
    """Substitute value v for variable x; binders shadow."""
    if isinstance(e, TLVar):
        return v if e.name == x else e
    if isinstance(e, (MethodVar, TLInt, TLBool)):
        return e
    if isinstance(e, CtorApp):
        return CtorApp(e.ctor, tuple(subst(a, x, v) for a in e.args))
    if isinstance(e, Lam):
        if e.var == x:
            return e
        return Lam(e.var, subst(e.body, x, v))
    if isinstance(e, App):
        return App(subst(e.fn, x, v), subst(e.arg, x, v))
    if isinstance(e, Case):
        clauses = tuple(
            c if x in c.pat.vars else Clause(c.pat, subst(c.body, x, v))
            for c in e.clauses)
        return Case(subst(e.scrut, x, v), clauses)
    if isinstance(e, TLPrim):
        return TLPrim(e.op, subst(e.left, x, v), subst(e.right, x, v))
    raise TypeError(f"not a TL expression: {e!r}")


class _Closure:
    """The value of a lambda: the lambda and the environment it closes over."""

    __slots__ = ("lam", "env")

    def __init__(self, lam, env):
        self.lam = lam
        self.env = env


# Continuation frames, each a sequence headed by a tag:
#   (_APP, argument, env)            function position is being evaluated
#   (_ARG, function value)           argument position is being evaluated
#   (_CASE, node, env)               scrutinee is being evaluated
#   [_CTOR, node, env, values so far]
#   [_PRIM, node, env, left value or None]
_APP, _ARG, _CASE, _CTOR, _PRIM = "app", "arg", "case", "ctor", "prim"


def _run(mu, e, fuel, on_step):
    stack = []
    push, pop = stack.append, stack.pop
    steps = 0
    c, env = e, {}
    try:
        while True:
            # Descend to the next subterm in evaluation order, until it is
            # a value v.
            while True:
                t = type(c)
                if t is App:
                    push((_APP, c.arg, env))
                    c = c.fn
                elif t is TLVar:
                    v = env.get(c.name, c)
                    break
                elif t is Case:
                    push((_CASE, c, env))
                    c = c.scrut
                elif t is Lam:
                    v = _Closure(c, env)
                    break
                elif t is CtorApp:
                    if not c.args:
                        v = c
                        break
                    push([_CTOR, c, env, []])
                    c = c.args[0]
                elif t is MethodVar or t is TLInt or t is TLBool:
                    v = c
                    break
                elif t is TLPrim:
                    push([_PRIM, c, env, None])
                    c = c.left
                else:
                    raise TypeError(f"not a TL expression: {c!r}")
            # Return v to the innermost frame; fire an axiom when one applies.
            while stack:
                f = pop()
                tag = f[0]
                if tag == _APP:
                    if type(v) is not MethodVar:
                        push((_ARG, v))
                        c, env = f[1], f[2]
                        break
                    lam = mu.get(v.name)
                    if lam is None:
                        raise _Stuck(UNBOUND_METHOD, f"unbound method variable {v.name}")
                    push(f)
                    c, env, v = lam, {}, None
                    rule = "tl-method"
                elif tag == _ARG:
                    fn = f[1]
                    if type(fn) is not _Closure:
                        raise _Stuck(NON_FUNCTION,
                                     f"applying non-function {tl.print_expr(_value_term(fn))}")
                    lam = fn.lam
                    c, env, v = lam.body, {**fn.env, lam.var: v}, None
                    rule = "tl-lambda"
                elif tag == _CASE:
                    c, env = _match(f[1], f[2], v)
                    v = None
                    rule = "tl-case"
                elif tag == _CTOR:
                    node, done = f[1], f[3]
                    done.append(v)
                    if len(done) < len(node.args):
                        push(f)
                        c, env = node.args[len(done)], f[2]
                        break
                    v = CtorApp(node.ctor, tuple(done))
                    continue
                else:
                    node = f[1]
                    if f[3] is None:
                        f[3] = v
                        push(f)
                        c, env = node.right, f[2]
                        break
                    v = prim(node.op, f[3], v, TLInt, TLBool)
                    rule = "tl-prim"
                if steps >= fuel:
                    return OutOfFuel(steps)
                steps += 1
                if on_step is not None and on_step(steps, rule, (v, c, env, stack)):
                    return None
                if v is None:
                    break
            else:
                return Value(_value_term(v), steps)
    except _Stuck as s:
        return StuckOutcome(s.reason, s.detail, steps)


def _match(node, env, v):
    """tl-case: the selected clause body and the environment it runs in."""
    if type(v) is not CtorApp:
        raise _Stuck(MATCH_FAILURE,
                     f"case on non-constructor value {tl.print_expr(_value_term(v))}")
    for c in node.clauses:
        if c.pat.ctor == v.ctor:
            names = c.pat.vars
            if len(names) != len(v.args):
                raise _Stuck(MATCH_FAILURE, f"pattern arity mismatch for {v.ctor}")
            if not names:
                return c.body, env
            # As with substituting one by one, a repeated pattern variable
            # is bound by its first occurrence.
            env = dict(env)
            env.update(zip(reversed(names), reversed(v.args)))
            return c.body, env
    raise _Stuck(MATCH_FAILURE, f"no clause matches {v.ctor}")


def _value_term(v):
    """Read a machine value back as a term.  Constructor values nest as deep
    as evaluation builds them, so they are rebuilt with an explicit stack."""
    done = []  # read-back terms, in order
    todo = [(v, False)]
    while todo:
        w, children_done = todo.pop()
        t = type(w)
        if children_done:
            n = len(w.args)
            args = tuple(done[len(done) - n:])
            del done[len(done) - n:]
            done.append(CtorApp(w.ctor, args))
        elif t is CtorApp and w.args:
            todo.append((w, True))
            todo.extend((a, False) for a in reversed(w.args))
        elif t is _Closure:
            done.append(_term(w.lam, w.env))
        else:
            done.append(w)
    return done[0]


def _term(e, env):
    for x, v in env.items():
        e = subst(e, x, _value_term(v))
    return e


def _plug(state):
    """The term a machine state stands for."""
    v, c, env, stack = state
    e = _value_term(v) if v is not None else _term(c, env)
    for f in reversed(stack):
        e = _plug_frame(f, e)
    return e


def _plug_frame(f, e):
    tag = f[0]
    if tag == _APP:
        return App(e, _term(f[1], f[2]))
    if tag == _ARG:
        return App(_value_term(f[1]), e)
    if tag == _CASE:
        return Case(e, _term(f[1], f[2]).clauses)
    _tag, node, env, done = f
    if tag == _CTOR:
        rest = node.args[len(done) + 1:]
        return CtorApp(node.ctor, tuple(map(_value_term, done)) + (e,) +
                       tuple(_term(a, env) for a in rest))
    if done is None:
        return TLPrim(node.op, e, _term(node.right, env))
    return TLPrim(node.op, _value_term(done), e)


def tl_step(mu, e):
    """One reduction step under method substitution mu."""
    return step_once(_run, _plug, mu, e)


def tl_eval(mu, e, fuel: int, trace=None):
    """Evaluate up to `fuel` axiom steps under method substitution mu."""
    check_fuel(fuel)
    return _run(mu, e, fuel, tracer(trace, _plug, tl.print_expr))


def run_program(prog: tl.TLProgram, fuel: int, trace=None):
    """Build the method substitution from the let bindings and evaluate main."""
    return tl_eval(prog.method_subst(), prog.main, fuel, trace=trace)
