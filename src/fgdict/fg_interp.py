"""Small-step reference semantics for FG, run as a fuel-bounded abstract
machine.

Only the axiom rules (field projection, method call, assertion, and the
extension's primitive operators) cost a step; descending through an
evaluation context is free.  Evaluation order follows the context grammar,
as `fg_ast.children` states it: struct arguments left to right, then
receiver, then call arguments left to right.

The machine holds a control expression, an environment binding the
enclosing method's receiver and parameters, and the evaluation context as
an explicit stack of frames, one shape for every node: the node, its
environment, its subexpressions and the values of those evaluated so far.
A method call binds its receiver and arguments in a fresh environment
instead of substituting them into the body, so a value, once built, is
never walked again.  `fg_step` and traces plug the stack back into the term
the substitution semantics shows.
"""

from __future__ import annotations

from . import fg_ast as fg
from .fg_ast import Assert, BoolLit, Call, IntLit, Select, StructLit, Var
from .fg_parser import print_expr
from .outcome import (  # noqa: F401  (re-exported outcome vocabulary)
    BAD_PRIM, OutOfFuel, Stepped, StuckOutcome, Value,
    _Stuck, check_fuel, prim, step_once, tracer,
)

# Stuck reasons
ASSERT_FAILURE = "assert-failure"
NO_METHOD = "no-method"
BAD_FIELD = "bad-field"
FREE_VAR = "free-var"


def value_type(v) -> str:
    """Dynamic type name of a value."""
    if isinstance(v, IntLit):
        return fg.INT
    if isinstance(v, BoolLit):
        return fg.BOOL
    return v.type_name


def _run(decls, e, fuel, on_step):
    methods = decls.method_decls
    stack = []  # frames [node, env, subexpressions, values so far]
    push, pop = stack.append, stack.pop
    steps = 0
    c, env = e, {}
    try:
        while True:
            # Descend to the next subterm in evaluation order, until it is
            # a value v.
            while True:
                if type(c) is Var:
                    v = env.get(c.name)
                    if v is None:
                        raise _Stuck(FREE_VAR, f"free variable {c.name}")
                    break
                try:
                    subs = fg.children(c)
                except TypeError:
                    raise _Stuck(BAD_PRIM, f"cannot reduce {c!r}") from None
                if not subs:  # a literal or a struct value with no fields
                    v = c
                    break
                push([c, env, subs, []])
                c = subs[0]
            # Return v to the innermost frame; once it has every value, fire
            # its axiom or build its struct value.
            while stack:
                node, fenv, subs, done = stack[-1]
                done.append(v)
                if len(done) < len(subs):
                    c, env = subs[len(done)], fenv
                    break
                pop()
                t = type(node)
                if t is StructLit:
                    v = StructLit(node.type_name, tuple(done), span=node.span)
                    continue
                if t is Select:
                    if not isinstance(v, StructLit):
                        raise _Stuck(BAD_FIELD, f"selecting {node.fld} from non-struct value")
                    i = decls.field_index.get(v.type_name, {}).get(node.fld)
                    if i is None:
                        raise _Stuck(BAD_FIELD, f"no field {node.fld} on {v.type_name}")
                    v = v.args[i]
                    rule = "fg-field"
                elif t is Call:
                    c, env = _call(methods, node, done[0], tuple(done[1:]))
                    v = None
                    rule = "fg-call"
                elif t is Assert:
                    t_dyn = value_type(v)
                    if not fg.is_subtype(decls, t_dyn, node.type_name):
                        raise _Stuck(ASSERT_FAILURE,
                                     f"{t_dyn} does not conform to {node.type_name}")
                    rule = "fg-assert"
                else:
                    v = prim(node.op, done[0], v, IntLit, BoolLit)
                    rule = "fg-prim"
                if steps >= fuel:
                    return OutOfFuel(steps)
                steps += 1
                if on_step is not None:
                    on_step(steps, rule, (v, c, env, stack))
                if v is None:
                    break
            else:
                return Value(v, steps)
    except _Stuck as s:
        return StuckOutcome(s.reason, s.detail, steps)


def _call(methods, node, recv, args):
    """fg-call: the method body and the environment it runs in."""
    if not isinstance(recv, StructLit):
        raise _Stuck(NO_METHOD, f"calling {node.method} on non-struct value")
    d = methods.get((recv.type_name, node.method))
    if d is None:
        raise _Stuck(NO_METHOD, f"no method {node.method} on {recv.type_name}")
    params = d.sig.params
    if len(params) != len(args):
        raise _Stuck(NO_METHOD, f"arity mismatch calling {node.method} on {recv.type_name}")
    # As with substituting one by one: the receiver shadows a parameter of
    # the same name, and an earlier parameter shadows a later one.
    env = {x: a for (x, _t), a in zip(reversed(params), reversed(args))}
    env[d.recv_var] = recv
    return d.body, env


def _plug(state):
    """The term a machine state stands for."""
    v, c, env, stack = state
    e = v if v is not None else fg.subst(c, env)
    for f in reversed(stack):
        e = _plug_frame(f, e)
    return e


def _plug_frame(f, e):
    """The node of frame `f` with `e` in the hole: the values before it, the
    rest of its subexpressions under the frame's environment after."""
    node, env, subs, done = f
    return fg.remake(node, [*done, e, *(fg.subst(s, env) for s in subs[len(done) + 1:])])


def fg_step(decls: fg.Decls, e):
    """One reduction step: Stepped(e', rule), or Value or StuckOutcome with
    0 steps when no step applies."""
    return step_once(_run, _plug, decls, e)


def fg_eval(decls: fg.Decls, e, fuel: int, trace=None):
    """Evaluate up to `fuel` axiom steps.  `trace`, if given, is called as
    trace(step_number, rule, expr_text) after each step."""
    check_fuel(fuel)
    return _run(decls, e, fuel, tracer(trace, _plug, print_expr))
