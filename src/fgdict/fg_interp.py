"""Small-step reference semantics for FG, run as a fuel-bounded abstract
machine.

Only the axiom rules (field projection, method call, assertion, and the
extension's primitive operators) cost a step; descending through an
evaluation context is free.  Evaluation order follows the context grammar,
as `fg_ast.children` states it: struct arguments left to right, then
receiver, then call arguments left to right.

The machine holds a control expression, an environment binding the
enclosing method's receiver and parameters, and the evaluation context as
an explicit stack of frames over one shared list of values.  A frame is
(node, environment, base): `base` is the length of the value list when the
frame is pushed, so its values are those from `base` up to the next
frame's.  The machine reads a node's subexpressions by its type, in
`children` order; a field selection or assertion keeps no values, a call
with no arguments fires as soon as its receiver returns, and a struct
literal whose arguments all return as themselves is its own value.  A method
call binds its receiver and arguments in a fresh environment instead of
substituting them into the body, so a value, once built, is never walked
again.  `fg_step` and traces plug the stack back, through `fg_ast.children`
and `fg_ast.remake`, into the term the substitution semantics shows.
"""

from __future__ import annotations

from operator import is_

from . import fg_ast as fg
from .fg_ast import Assert, BinOp, BoolLit, Call, IntLit, Select, StructLit, Var
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
    stack = []  # frames (node, env, base)
    vals = []  # each frame's values, from its base up to the next frame's
    push, pop = stack.append, stack.pop
    steps = 0
    c, env = e, {}
    try:
        while True:
            # Descend to the next subterm in evaluation order, until it is
            # a value v.
            while True:
                t = type(c)
                if t is Var:
                    v = env.get(c.name)
                    if v is None:
                        raise _Stuck(FREE_VAR, f"free variable {c.name}")
                    break
                if t is Call or t is Select:
                    push((c, env, len(vals)))
                    c = c.recv
                elif t is StructLit:
                    if not c.args:
                        v = c
                        break
                    push((c, env, len(vals)))
                    c = c.args[0]
                elif t is Assert:
                    push((c, env, len(vals)))
                    c = c.expr
                elif t is BinOp:
                    push((c, env, len(vals)))
                    c = c.left
                elif t is IntLit or t is BoolLit:
                    v = c
                    break
                else:
                    raise _Stuck(BAD_PRIM, f"cannot reduce {c!r}")
            # Return v to the innermost frame; once it has every value, fire
            # its axiom or build its struct value.
            while stack:
                node, fenv, base = stack[-1]
                t = type(node)
                if t is Select:
                    pop()
                    if type(v) is not StructLit:
                        raise _Stuck(BAD_FIELD, f"selecting {node.fld} from non-struct value")
                    i = decls.field_index.get(v.type_name, {}).get(node.fld)
                    if i is None:
                        raise _Stuck(BAD_FIELD, f"no field {node.fld} on {v.type_name}")
                    v = v.args[i]
                    rule = "fg-field"
                elif t is Call:
                    n = len(vals) - base  # the receiver and arguments so far
                    args = node.args
                    if n < len(args):
                        vals.append(v)
                        c, env = args[n], fenv
                        break
                    pop()
                    if n:
                        recv, args = vals[base], (*vals[base + 1:], v)
                        del vals[base:]
                    else:
                        recv, args = v, ()
                    c, env = _call(methods, node, recv, args)
                    v = None
                    rule = "fg-call"
                elif t is StructLit:
                    n = len(vals) - base + 1
                    args = node.args
                    if n < len(args):
                        vals.append(v)
                        c, env = args[n], fenv
                        break
                    pop()
                    # A literal whose arguments come back as themselves is
                    # its own value.
                    if n > 1:
                        vals.append(v)
                        built = vals[base:]
                        del vals[base:]
                        v = node if all(map(is_, built, args)) else \
                            StructLit(node.type_name, tuple(built), node.span)
                    elif v is args[0]:
                        v = node
                    else:
                        v = StructLit(node.type_name, (v,), node.span)
                    continue
                elif t is Assert:
                    pop()
                    t_dyn = value_type(v)
                    if not fg.is_subtype(decls, t_dyn, node.type_name):
                        raise _Stuck(ASSERT_FAILURE,
                                     f"{t_dyn} does not conform to {node.type_name}")
                    rule = "fg-assert"
                elif len(vals) == base:
                    vals.append(v)
                    c, env = node.right, fenv
                    break
                else:
                    pop()
                    v = prim(node.op, vals.pop(), v, IntLit, BoolLit)
                    rule = "fg-prim"
                if steps >= fuel:
                    return OutOfFuel(steps)
                steps += 1
                if on_step is not None:
                    on_step(steps, rule, (v, c, env, stack, vals))
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
    if len(args) == 1:
        return d.body, {params[0][0]: args[0], d.recv_var: recv}
    env = {x: a for (x, _t), a in zip(reversed(params), reversed(args))}
    env[d.recv_var] = recv
    return d.body, env


def _plug(state):
    """The term a machine state stands for: each frame's node with the term
    so far in the hole, its values before it and the rest of its
    subexpressions, under the frame's environment, after."""
    v, c, env, stack, vals = state
    e = v if v is not None else fg.subst(c, env)
    end = len(vals)
    for node, env, base in reversed(stack):
        done = vals[base:end]
        end = base
        rest = fg.children(node)[len(done) + 1:]
        e = fg.remake(node, [*done, e, *(fg.subst(s, env) for s in rest)])
    return e


def fg_step(decls: fg.Decls, e):
    """One reduction step: Stepped(e', rule), or Value or StuckOutcome with
    0 steps when no step applies."""
    return step_once(_run, _plug, decls, e)


def fg_eval(decls: fg.Decls, e, fuel: int, trace=None):
    """Evaluate up to `fuel` axiom steps.  `trace`, if given, is called as
    trace(step_number, rule, expr_text) after each step."""
    check_fuel(fuel)
    return _run(decls, e, fuel, tracer(trace, _plug, print_expr))
