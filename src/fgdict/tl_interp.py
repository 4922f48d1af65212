"""Small-step semantics for the target language under a method substitution,
run as a fuel-bounded abstract machine.

Axiom rules (beta, case selection, method unfolding, primitive operators)
cost one step each; context descent is free.  A method variable in function
position unfolds immediately (`Y E -> mu(Y) E`), before its argument is
reduced, which keeps the strategy deterministic.  That holds also when the
method variable is the value of the function expression.

The machine holds a control term, an environment of lambda- and
pattern-bound variables, and the evaluation context as an explicit stack of
frames: the node, its environment and the values of its subterms evaluated
so far (`()` for a case, which fires on its scrutinee's value).  An atom (a
variable, a method variable, a literal, a nullary constructor or a lambda)
is evaluated where it stands, with no frame: an application of a
closure-valued atom to an atom and a case on a variable fire at once, and a
constructor's frame starts with the values of its leading atoms.  A lambda
evaluates to a closure, the pair (lambda, environment); a free variable is a
value.  Closures are read back to terms only for the final value, stuck
details, `tl_step` and traces, each by one simultaneous substitution of its
environment (`tl_ast.subst`), and frames are plugged back with
`tl_ast.remake`.  Binding is lexical, so the machine and the substitution
semantics differ only where a value carrying a free variable is substituted
under a binder of that name, which a closed program never does.
"""

from __future__ import annotations

from . import tl_ast as tl
from .diagnostics import rebuild
from .outcome import (  # noqa: F401  (re-exported outcome vocabulary)
    BAD_PRIM, OutOfFuel, Stepped, StuckOutcome, Value,
    _Stuck, check_fuel, prim, step_once, tracer,
)
from .tl_ast import App, Case, CtorApp, Lam, MethodVar, TLBool, TLInt, TLPrim, TLVar

MATCH_FAILURE = "match-failure"
UNBOUND_METHOD = "unbound-method"
NON_FUNCTION = "non-function-application"


def _atom(e, env):
    """The value of `e` under `env` if `e` is an atom, else None.  The
    machine's descent reads a variable or lambda in control, an
    application's function and a case's scrutinee without it, which
    measured faster."""
    t = type(e)
    if t is TLVar:
        return env.get(e.name, e)
    if t is Lam:
        return (e, env)
    if t is MethodVar or t is TLInt or t is TLBool or (t is CtorApp and not e.args):
        return e
    return None


def _run(mu, e, fuel, on_step):
    stack = []  # frames (node, env, values so far: a list, or () for a case)
    push, pop = stack.append, stack.pop
    steps = 0
    c, env = e, {}
    try:
        while True:
            # Descend to the next subterm in evaluation order, until it is
            # a value v, or fire in place an axiom whose operands are atoms.
            while True:
                t = type(c)
                if t is App:
                    f = c.fn
                    ft = type(f)
                    if ft is TLVar:
                        f = env.get(f.name, f)
                    elif ft is Lam:
                        f = (f, env)
                    elif ft is not MethodVar:
                        push((c, env, []))
                        c = f
                        continue
                    if type(f) is MethodVar:
                        push((c, env, []))
                        v = f
                        break
                    a = _atom(c.arg, env) if type(f) is tuple else None
                    if a is None:
                        push((c, env, [f]))
                        c = c.arg
                        continue
                    lam, env = f
                    c, env = lam.body, {**env, lam.var: a}
                    rule = "tl-lambda"
                elif t is Case:
                    s = c.scrut
                    if type(s) is not TLVar:
                        push((c, env, ()))
                        c = c.scrut
                        continue
                    c, env = _match(c, env, env.get(s.name, s))
                    rule = "tl-case"
                elif t is CtorApp:
                    args = c.args
                    done = []
                    for a in args:
                        x = _atom(a, env)
                        if x is None:
                            break
                        done.append(x)
                    else:
                        v = CtorApp(c.ctor, tuple(done)) if done else c
                        break
                    push((c, env, done))
                    c = args[len(done)]
                    continue
                elif t is TLVar:
                    v = env.get(c.name, c)
                    break
                elif t is Lam:
                    v = (c, env)
                    break
                elif t is TLPrim:
                    push((c, env, []))
                    c = c.left
                    continue
                else:
                    v = _atom(c, env)
                    if v is None:
                        raise TypeError(f"not a TL expression: {c!r}")
                    break
                if steps >= fuel:
                    return OutOfFuel(steps)
                steps += 1
                if on_step is not None:
                    on_step(steps, rule, (None, c, env, stack))
                if type(c) is Lam:  # a curried lambda's closure, in place
                    v = (c, env)
                    break
            # Return v to the innermost frame; once it has the values its
            # axiom needs, fire the axiom or build the constructor value.
            while stack:
                node, fenv, done = stack[-1]
                t = type(node)
                if t is App:
                    if done:
                        pop()
                        fn = done[0]
                        if type(fn) is not tuple:
                            raise _Stuck(NON_FUNCTION,
                                         f"applying non-function {tl.print_expr(_value_term(fn))}")
                        lam, env = fn
                        c, env = lam.body, {**env, lam.var: v}
                        v = (c, env) if type(c) is Lam else None
                        rule = "tl-lambda"
                    elif type(v) is not MethodVar:
                        done.append(v)
                        c, env = node.arg, fenv
                        break
                    else:
                        lam = mu.get(v.name)
                        if lam is None:
                            raise _Stuck(UNBOUND_METHOD, f"unbound method variable {v.name}")
                        c, env = lam, {}
                        v = (lam, env) if type(lam) is Lam else None
                        rule = "tl-method"
                elif t is Case:
                    pop()
                    c, env = _match(node, fenv, v)
                    v = None
                    rule = "tl-case"
                elif t is CtorApp:
                    done.append(v)
                    if len(done) < len(node.args):
                        c, env = node.args[len(done)], fenv
                        break
                    pop()
                    v = CtorApp(node.ctor, tuple(done))
                    continue
                elif not done:
                    done.append(v)
                    c, env = node.right, fenv
                    break
                else:
                    pop()
                    v = prim(node.op, done[0], v, TLInt, TLBool)
                    rule = "tl-prim"
                if steps >= fuel:
                    return OutOfFuel(steps)
                steps += 1
                if on_step is not None:
                    on_step(steps, rule, (v, c, env, stack))
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
            if len(names) == 1:
                return c.body, {**env, names[0]: v.args[0]}
            # As with substituting one by one, a repeated pattern variable
            # is bound by its first occurrence.
            env = dict(env)
            env.update(zip(reversed(names), reversed(v.args)))
            return c.body, env
    raise _Stuck(MATCH_FAILURE, f"no clause matches {v.ctor}")


def _value_term(v):
    """Read a machine value back as a term.  A value that holds no closure
    is its own term; the others are rebuilt.  Constructor values, and
    closures through their environments, nest as deep as evaluation builds
    them (see `rebuild`)."""
    todo = [v]
    while todo:
        w = todo.pop()
        if type(w) is tuple:
            break
        if type(w) is CtorApp:
            todo += w.args
    else:
        return v

    def children(w):
        t = type(w)
        if t is CtorApp:
            return w.args
        if t is tuple:
            return tuple(w[1].values())
        return None

    def build(w, subs):
        if type(w) is CtorApp:
            return CtorApp(w.ctor, tuple(subs)) if subs else w
        if type(w) is tuple:
            term, env = w
            return tl.subst(term, dict(zip(env, subs)))
        return w

    return rebuild(v, children, build)


def _plug(state):
    """The term a machine state stands for: each frame's node with the term
    so far in the hole, the values before it and the rest of its subterms,
    under the frame's environment, after."""
    v, c, env, stack = state
    e = _value_term(v if v is not None else (c, env))
    for node, env, done in reversed(stack):
        rest = tl.children(node)[len(done) + 1:]
        e = tl.remake(node, [*map(_value_term, done), e, *(
            _value_term((s, {x: w for x, w in env.items() if x not in xs})) for s, xs in rest)])
    return e


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
