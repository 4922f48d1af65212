"""Small-step reference semantics for FG, run as a fuel-bounded abstract
machine.

Only the axiom rules (field projection, method call, assertion, and the
extension's primitive operators) cost a step; descending through an
evaluation context is free.  Evaluation order follows the context grammar:
struct arguments left to right, then receiver, then call arguments left to
right.

The machine holds a control expression, an environment binding the
enclosing method's receiver and parameters, and the evaluation context as
an explicit stack of frames.  A method call binds its receiver and
arguments in a fresh environment instead of substituting them into the
body, so a value, once built, is never walked again.  `fg_step` and traces
plug the stack back into the term the substitution semantics shows.
"""

from __future__ import annotations

from . import fg_ast as fg
from .fg_ast import Assert, BinOp, BoolLit, Call, IntLit, Select, StructLit, Var
from .fg_parser import print_expr, subst_expr
from .outcome import (  # noqa: F401  (re-exported outcome vocabulary)
    BAD_PRIM, AlreadyValue, OutOfFuel, Stepped, Stuck, StuckOutcome, Value,
    _Stuck, check_fuel, prim, step_once, tracer,
)

# Stuck reasons
ASSERT_FAILURE = "assert-failure"
NO_METHOD = "no-method"
BAD_FIELD = "bad-field"
FREE_VAR = "free-var"


def value_type(decls, v) -> str:
    """Dynamic type name of a value."""
    if isinstance(v, IntLit):
        return fg.INT
    if isinstance(v, BoolLit):
        return fg.BOOL
    return v.type_name


def dict_fields(decls, t_s):
    return {f: i for i, (f, _t) in enumerate(decls.struct_fields(t_s))}


# Continuation frames.  A Select, an Assert or an argument-less Call node is
# its own frame, waiting for its subject.  The other frames are lists:
#   [_STRUCT, node, env, argument values so far]
#   [_CALL, node, env, receiver value and argument values so far]
#   [_BIN, node, env, left value or None]
_STRUCT, _CALL, _BIN = "struct", "call", "bin"


def _run(decls, e, fuel, on_step):
    methods = decls.method_decls
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
                if t is Call:
                    push([_CALL, c, env, []] if c.args else c)
                    c = c.recv
                elif t is Var:
                    v = env.get(c.name)
                    if v is None:
                        raise _Stuck(FREE_VAR, f"free variable {c.name}")
                    break
                elif t is Select:
                    push(c)
                    c = c.recv
                elif t is StructLit:
                    if not c.args:
                        v = c
                        break
                    push([_STRUCT, c, env, []])
                    c = c.args[0]
                elif t is Assert:
                    push(c)
                    c = c.expr
                elif t is IntLit or t is BoolLit:
                    v = c
                    break
                elif t is BinOp:
                    push([_BIN, c, env, None])
                    c = c.left
                else:
                    raise _Stuck(BAD_PRIM, f"cannot reduce {c!r}")
            # Return v to the innermost frame; fire an axiom when one applies.
            while stack:
                f = pop()
                t = type(f)
                if t is Select:
                    if not isinstance(v, StructLit):
                        raise _Stuck(BAD_FIELD, f"selecting {f.fld} from non-struct value")
                    i = dict_fields(decls, v.type_name).get(f.fld)
                    if i is None:
                        raise _Stuck(BAD_FIELD, f"no field {f.fld} on {v.type_name}")
                    v = v.args[i]
                    rule = "fg-field"
                elif t is Call:
                    c, env = _call(methods, f, v, ())
                    v = None
                    rule = "fg-call"
                elif t is Assert:
                    t_dyn = value_type(decls, v)
                    if not fg.is_subtype(decls, t_dyn, f.type_name):
                        raise _Stuck(ASSERT_FAILURE,
                                     f"{t_dyn} does not conform to {f.type_name}")
                    rule = "fg-assert"
                else:
                    tag, node = f[0], f[1]
                    if tag == _STRUCT:
                        done = f[3]
                        done.append(v)
                        if len(done) < len(node.args):
                            push(f)
                            c, env = node.args[len(done)], f[2]
                            break
                        v = StructLit(node.type_name, tuple(done), span=node.span)
                        continue
                    if tag == _CALL:
                        done = f[3]
                        done.append(v)
                        if len(done) <= len(node.args):
                            push(f)
                            c, env = node.args[len(done) - 1], f[2]
                            break
                        c, env = _call(methods, node, done[0], tuple(done[1:]))
                        v = None
                        rule = "fg-call"
                    else:
                        if f[3] is None:
                            f[3] = v
                            push(f)
                            c, env = node.right, f[2]
                            break
                        v = prim(node.op, f[3], v, IntLit, BoolLit)
                        rule = "fg-prim"
                if steps >= fuel:
                    return OutOfFuel(steps)
                steps += 1
                if on_step is not None and on_step(steps, rule, (v, c, env, stack)):
                    return None
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


def _term(e, env):
    for x, v in env.items():
        e = subst_expr(e, x, v)
    return e


def _plug(state):
    """The term a machine state stands for."""
    v, c, env, stack = state
    e = v if v is not None else _term(c, env)
    for f in reversed(stack):
        e = _plug_frame(f, e)
    return e


def _plug_frame(f, e):
    t = type(f)
    if t is Select:
        return Select(e, f.fld, span=f.span)
    if t is Assert:
        return Assert(e, f.type_name, span=f.span)
    if t is Call:
        return Call(e, f.method, f.args, span=f.span)
    tag, node, env, done = f
    if tag == _BIN:
        if done is None:
            return BinOp(node.op, e, _term(node.right, env), span=node.span)
        return BinOp(node.op, done, e, span=node.span)
    if tag == _STRUCT:
        rest = node.args[len(done) + 1:]
        args = tuple(done) + (e,) + tuple(_term(a, env) for a in rest)
        return StructLit(node.type_name, args, span=node.span)
    if not done:
        return Call(e, node.method, tuple(_term(a, env) for a in node.args),
                    span=node.span)
    args = tuple(done[1:]) + (e,) + tuple(_term(a, env) for a in node.args[len(done):])
    return Call(done[0], node.method, args, span=node.span)


def fg_step(decls: fg.Decls, e):
    """One reduction step: Stepped(e', rule), AlreadyValue() or Stuck."""
    return step_once(_run, _plug, decls, e)


def fg_eval(decls: fg.Decls, e, fuel: int, trace=None):
    """Evaluate up to `fuel` axiom steps.  `trace`, if given, is called as
    trace(step_number, rule, expr_text) after each step."""
    check_fuel(fuel)
    return _run(decls, e, fuel, tracer(trace, _plug, print_expr))
