"""Type-directed dictionary-passing translation from FG to TL.

The translator doubles as the FG type checker: erasing the emitted code
from the rules leaves exactly the typing rules, so a program translates
without diagnostics iff it type-checks.

Interface values are constructor applications K_I(value, dict...) where the
dictionary entries are method variables in the interface's spec order.
Upcast and downcast helpers are emitted inline by default; with
hoist_helpers=True they become named let bindings (to_I_T / from_I_U) after
the method bindings, matching the presentation style of hand-written
dictionary-passing code.  Either way each helper is built once per program:
an inline use site shares the one lambda.  Every TL name is spelled by
`tl_ast`.

`Translator.typed` is the one typing of a node, a declaration or `main`;
`fold` puts a program's code together from its nodes' typings, for
`translate_program` and for each shrink candidate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import fg_ast as fg
from . import tl_ast as tl
from .diagnostics import (
    ARITY_MISMATCH,
    ASSERT_ON_STRUCT,
    NOT_A_STRUCT,
    NOT_A_SUBTYPE,
    PRIM_OP_TYPE,
    UNKNOWN_FIELD,
    UNKNOWN_METHOD,
    UNKNOWN_TYPE,
    UNKNOWN_VAR,
    Diagnostic,
    FgError,
    collector_paused,
)


def _fresh():
    """A supply of fresh TL variables, numbered from 0."""
    return map(tl.fresh_var, itertools.count()).__next__


def _match(scrut, ctor, vars_, body):
    """The single-clause `case scrut of { ctor vars -> body }`."""
    return tl.Case(scrut, (tl.Clause(tl.Pattern(ctor, tuple(vars_)), body),))


@dataclass
class Translation:
    tl_program: object  # TLProgram | None if diagnostics contains errors
    main_type: str | None
    diagnostics: list
    rule_counts: dict = field(default_factory=dict)
    typed: list = field(default_factory=list)  # each declaration's `Translator.typed`, then main's

    @property
    def ok(self):
        return not self.diagnostics

    @property
    def relies(self):  # each declaration's reliance set, then main's
        return [r for _code, r in self.typed]


class Translator:
    def __init__(self, decls: fg.Decls, hoist_helpers=False):
        self.decls = decls
        self.hoist = hoist_helpers
        self.counts = {}
        self.helpers = {}  # name -> (Lam, the pairs it relies on), in order of first use
        self.upcasts = {}  # (have, want) -> (upcast code, the pairs it relies on)
        self.fresh = _fresh()
        # What the node being typed relies on, recorded at each use: removing
        # any one of these declarations makes its code ill-typed.  A struct
        # literal or assertion adds its type name, a method its signature and
        # receiver types, a struct call its (struct, method) pair, and each use
        # of a struct upcast or downcast helper one pair per interface spec.
        self.uses = set()

    def count(self, rule):
        self.counts[rule] = self.counts.get(rule, 0) + 1

    # -- expressions -------------------------------------------------------

    def infer_expr(self, env, e):
        """Syntax-directed synthesis: returns (minimal type, TL code).

        Subexpressions are typed in the FG machine's order, `fg.children`,
        and each is coerced to the type its node wants as soon as it is
        typed.  Each node waiting for a subexpression is a frame on an
        explicit stack, so terms of any depth check:
          [node, subexpressions, codes so far, wanted (name, type) pairs, first]
        A Select, Assert or Call wants its first subexpression at the type it
        has, and `first` is that type; a call's receiver type also decides
        the wanted argument types, and `first` is (receiver type, signature,
        interface spec index or None)."""
        stack = []
        while True:
            # Type a leaf, or push its node and descend to its first subexpression.
            t = type(e)
            if t is fg.Var:
                if e.name not in env:
                    raise FgError(Diagnostic(
                        UNKNOWN_VAR, f"unknown variable {e.name}", e.span))
                self.count("td-var")
                res = env[e.name], tl.TLVar(tl.fg_var(e.name))
            elif t is fg.IntLit:
                res = fg.INT, tl.TLInt(e.value)
            elif t is fg.BoolLit:
                res = fg.BOOL, tl.TLBool(e.value)
            else:
                subs = fg.children(e)
                wants = None
                if t is fg.StructLit:
                    if self.decls.kind(e.type_name) != "struct":
                        raise FgError(Diagnostic(
                            UNKNOWN_TYPE, f"{e.type_name} is not a declared struct", e.span))
                    wants = self.decls.struct_fields(e.type_name)
                    if len(wants) != len(subs):
                        raise FgError(Diagnostic(
                            ARITY_MISMATCH,
                            f"struct {e.type_name} has {len(wants)} fields, got {len(subs)}",
                            e.span))
                elif t is fg.BinOp:
                    wants = ((None, fg.BINOPS[e.op][0]),) * 2
                if subs:
                    stack.append([e, subs, [], wants, None])
                    e = subs[0]
                    continue
                res = self._node(e, (), None)
            # Return the typed subexpression to the nodes waiting for it.
            while stack:
                f = stack[-1]
                node, subs, codes, wants, first = f
                have, code = res
                if wants is None:
                    wants = f[3] = [(None, have)]
                    first = f[4] = have
                    if type(node) is fg.Call:
                        sig, idx = self._call_sig(node, have)
                        wants += sig.params
                        first = f[4] = have, sig, idx
                i = len(codes)
                want = wants[i][1]
                codes.append(code if have == want else self.coerce_to(
                    have, want, code, subs[i].span,
                    PRIM_OP_TYPE if type(node) is fg.BinOp else NOT_A_SUBTYPE))
                if i + 1 < len(subs):
                    e = subs[i + 1]
                    break
                stack.pop()
                res = self._node(node, codes, first)
            else:
                return res

    def _node(self, e, codes, first):
        """The type and code of `e` from the codes of its subexpressions, each
        coerced to its wanted type, and what its first subexpression's type
        decided (see `infer_expr`)."""
        t = type(e)
        if t is fg.StructLit:
            self.count("td-struct")
            self.uses.add(e.type_name)
            return e.type_name, tl.CtorApp(tl.struct_ctor(e.type_name), tuple(codes))
        if t is fg.Call:
            return self._call(e, codes[0], *first, tuple(codes[1:]))
        if t is fg.Select:
            return self._select(e, first, codes[0])
        if t is fg.Assert:
            return self._assert(e, first, codes[0])
        return fg.BINOPS[e.op][1], tl.TLPrim(e.op, *codes)

    def _select(self, e, t_recv, code):
        decls = self.decls
        if decls.kind(t_recv) != "struct":
            raise FgError(Diagnostic(
                NOT_A_STRUCT, f"field selection on non-struct type {t_recv}", e.span))
        i = decls.field_index[t_recv].get(e.fld)
        if i is None:
            raise FgError(Diagnostic(
                UNKNOWN_FIELD, f"no field {e.fld} on {t_recv}", e.span))
        self.count("td-access")
        fields = decls.struct_fields(t_recv)
        vars_ = [self.fresh() for _ in fields]
        return fields[i][1], _match(code, tl.struct_ctor(t_recv), vars_,
                                    tl.TLVar(vars_[i]))

    def _call_sig(self, e, t_recv):
        """The signature of the method `e` calls on `t_recv`, and the index of
        its spec if `t_recv` is an interface, else None."""
        decls = self.decls
        kind = decls.kind(t_recv)
        if kind == "prim":
            raise FgError(Diagnostic(
                UNKNOWN_METHOD, f"method call on primitive type {t_recv}", e.span))
        if kind == "struct":
            d = decls.method_decls.get((t_recv, e.method))
            if d is None:
                raise FgError(Diagnostic(
                    UNKNOWN_METHOD, f"no method {e.method} on {t_recv}", e.span))
            sig, idx = d.sig, None
        else:
            specs = decls.iface_specs(t_recv)
            idx = next((j for j, s in enumerate(specs) if s.name == e.method), None)
            if idx is None:
                raise FgError(Diagnostic(
                    UNKNOWN_METHOD, f"interface {t_recv} has no method {e.method}", e.span))
            sig = specs[idx].sig
        if len(sig.params) != len(e.args):
            raise FgError(Diagnostic(
                ARITY_MISMATCH,
                f"method {e.method} expects {len(sig.params)} arguments, got {len(e.args)}",
                e.span))
        return sig, idx

    def _call(self, e, code, t_recv, sig, idx, args):
        if idx is None:
            self.count("td-call-struct")
            self.uses.add((t_recv, e.method))
            fn = tl.MethodVar(tl.method_var_name(e.method, t_recv))
            return sig.ret, tl.App(tl.App(fn, code), tl.make_tuple(args))
        self.count("td-call-iface")
        x = self.fresh()
        slots = tuple(self.fresh() for _ in self.decls.iface_specs(t_recv))
        call = tl.App(tl.App(tl.TLVar(slots[idx]), tl.TLVar(x)), tl.make_tuple(args))
        return sig.ret, _match(code, tl.struct_ctor(t_recv), (x,) + slots, call)

    def _assert(self, e, t_expr, code):
        decls = self.decls
        if decls.kind(t_expr) != "interface":
            raise FgError(Diagnostic(
                ASSERT_ON_STRUCT,
                f"type assertion on non-interface-typed expression (type {t_expr})",
                e.span))
        if decls.kind(e.type_name) == "prim":
            raise FgError(Diagnostic(
                UNKNOWN_TYPE, f"asserted type {e.type_name} is not declared", e.span))
        if decls.kind(e.type_name) == "struct" and \
                not fg.is_subtype(decls, e.type_name, t_expr):
            raise FgError(Diagnostic(
                NOT_A_SUBTYPE,
                f"assertion to {e.type_name} can never succeed: "
                f"{e.type_name} does not implement {t_expr}",
                e.span))
        self.count("td-assert")
        self.uses.add(e.type_name)
        return e.type_name, tl.App(self.build_downcast(t_expr, e.type_name), code)

    def coerce_to(self, have, want, code, span, diag_code):
        """The single place where subsumption applies.  Each (have, want)
        pair is checked, and its upcast looked up, once per translator."""
        if have == want:
            return code
        upcast = self.upcasts.get((have, want))
        if upcast is None:
            decls = self.decls
            if decls.kind(want) != "interface" or not fg.is_subtype(decls, have, want):
                raise FgError(Diagnostic(
                    diag_code, f"{have} is not a subtype of {want}", span))
            self.count("td-sub")  # before the rule that builds the helper
            upcast = self.upcasts[have, want] = self._helper(
                tl.upcast_name(have, want), self._upcast, have, want)
        else:
            self.count("td-sub")
            self.uses.update(upcast[1])
        return tl.App(upcast[0], code)

    # -- interface-value constructors and destructors ----------------------

    def _helper(self, name, build, *args):
        """The code for helper `name`, its binding when hoisting, else its
        lambda, and the (struct, method) pairs it relies on.
        `build(fresh, *args)` builds it once, with its own fresh-variable
        supply, and gives the lambda and those pairs; every use adds them to
        `uses`."""
        helper = self.helpers.get(name)
        if helper is None:
            helper = self.helpers[name] = build(_fresh(), *args)
        self.uses.update(helper[1])
        return tl.MethodVar(name) if self.hoist else helper[0], helper[1]

    def build_upcast(self, t, u_i):
        return self._helper(tl.upcast_name(t, u_i), self._upcast, t, u_i)[0]

    def build_downcast(self, t_i, u):
        return self._helper(tl.downcast_name(t_i, u), self._downcast, t_i, u)[0]

    def _upcast(self, fresh, t, u_i):
        decls = self.decls
        assert decls.kind(u_i) == "interface"
        specs = decls.iface_specs(u_i)
        x = fresh()
        if decls.kind(t) == "struct":
            self.count("td-cons-struct-iface")
            assert fg.is_subtype(decls, t, u_i)
            slots = tuple(tl.MethodVar(tl.method_var_name(s.name, t)) for s in specs)
            return tl.Lam(x, tl.CtorApp(tl.struct_ctor(u_i), (tl.TLVar(x),) + slots)), \
                [(t, s.name) for s in specs]
        self.count("td-cons-iface-iface")
        given = decls.iface_specs(t)
        keys = [r.key() for r in given]
        perm = [keys.index(s.key()) for s in specs]  # guaranteed by subtyping
        xv = fresh()
        xs = [fresh() for _ in given]
        body = tl.CtorApp(tl.struct_ctor(u_i),
                          (tl.TLVar(xv),) + tuple(tl.TLVar(xs[p]) for p in perm))
        return tl.Lam(x, _match(tl.TLVar(x), tl.struct_ctor(t), [xv] + xs, body)), ()

    def _downcast(self, fresh, t_i, u):
        decls = self.decls
        assert decls.kind(t_i) == "interface"
        x = fresh()
        y = fresh()
        dict_vars = [fresh() for _ in decls.iface_specs(t_i)]
        if decls.kind(u) == "struct":
            self.count("td-destr-iface-struct")
            assert fg.is_subtype(decls, u, t_i)
            relies = [(u, s.name) for s in decls.iface_specs(t_i)]
            ys = [fresh() for _ in decls.struct_fields(u)]
            inner = _match(tl.TLVar(y), tl.struct_ctor(u), ys,
                           tl.CtorApp(tl.struct_ctor(u), tuple(map(tl.TLVar, ys))))
        else:
            self.count("td-destr-iface-iface")
            specs = decls.iface_specs(u)
            relies = ()
            clauses = []
            for t_sj in decls.implementers[u]:
                # Build the target interface value directly (the reduct of the
                # struct upcast), so a successful destructor costs exactly one
                # lambda plus two pattern matches.
                ys = tuple(fresh() for _ in decls.struct_fields(t_sj))
                repacked = tl.CtorApp(tl.struct_ctor(t_sj), tuple(map(tl.TLVar, ys)))
                slots = tuple(tl.MethodVar(tl.method_var_name(s.name, t_sj)) for s in specs)
                clauses.append(tl.Clause(
                    tl.Pattern(tl.struct_ctor(t_sj), ys),
                    tl.CtorApp(tl.struct_ctor(u), (repacked,) + slots)))
            inner = tl.Case(tl.TLVar(y), tuple(clauses))
        return tl.Lam(x, _match(tl.TLVar(x), tl.struct_ctor(t_i), [y] + dict_vars, inner)), \
            relies

    # -- methods and programs ----------------------------------------------

    def typed(self, node):
        """The one typing of a declaration, or of the expression `main`: its
        code, a method's (name, lambda) binding (a lambda over the receiver,
        then over the parameter tuple) or `main`'s (type, code) (None for a
        type declaration), and its reliance set (`uses`, recorded at each
        use).  Raises FgError if `node` is ill-typed."""
        if isinstance(node, fg.TypeDecl):
            lit = node.literal
            if isinstance(lit, fg.StructType):
                return None, {t for _f, t in lit.fields}
            return None, {t for s in lit.specs for t in s.sig.param_types + (s.sig.ret,)}
        self.uses = set()
        self.fresh = _fresh()
        if not isinstance(node, fg.MethodDecl):
            return self.infer_expr({}, node), self.uses
        have, body = self.infer_expr(method_env(node), node.body)
        body = self.coerce_to(have, node.sig.ret, body, node.body.span, NOT_A_SUBTYPE)
        self.count("td-method")
        self.uses.update(node.sig.param_types, (node.recv_type, node.sig.ret))
        arg = self.fresh()
        params = [tl.fg_var(x) for x, _t in node.sig.params]
        body = _match(tl.TLVar(arg), tl.tuple_ctor(len(params)), params, body)
        return (tl.method_var_name(node.name, node.recv_type),
                tl.Lam(tl.fg_var(node.recv_var), tl.Lam(arg, body))), self.uses


def method_env(d: fg.MethodDecl):
    """The environment a method body is typed in: receiver, then parameters."""
    env = {d.recv_var: d.recv_type}
    env.update(d.sig.params)
    return env


@collector_paused
def translate_program(prog: fg.Program, hoist_helpers=False) -> Translation:
    """Check a program, then translate it: each declaration, then `main`,
    typed by one translator (`Translator.typed`), and the typings folded
    (`fold`).  An ill-formed program gets its well-formedness diagnostics
    and no translation; type diagnostics are aggregated instead of stopping
    at the first."""
    diags = fg.check_wellformed(prog)
    if diags:
        return Translation(None, None, diags)
    tr = Translator(prog.table, hoist_helpers=hoist_helpers)
    typed = []
    for node in prog.decls + (prog.main,):
        try:
            typed.append(tr.typed(node))
        except FgError as err:
            diags.extend(err.diagnostics)
    tr.count("td-prog")
    if diags:
        return Translation(None, None, diags, tr.counts)
    helpers = [(name, lam) for name, (lam, _p) in tr.helpers.items()] if tr.hoist else ()
    return fold(typed, helpers, tr.counts)


def fold(typed, helpers=(), rule_counts=None) -> Translation:
    """The translation of a well-typed program whose declarations, then
    `main`, have the typings `typed` (`Translator.typed`): the methods'
    bindings, then `helpers` (hoisted helper bindings), then `main`'s code."""
    codes = [code for code, _r in typed if code is not None]
    main_type, main_code = codes.pop()
    return Translation(tl.TLProgram(tuple(codes) + tuple(helpers), main_code), main_type, [],
                       rule_counts or {}, typed)


def require_translation(prog: fg.Program, **kw) -> Translation:
    """The checked pipeline: well-formedness, then translation.  Raises
    FgError with the diagnostics of an ill-formed or ill-typed program."""
    res = translate_program(prog, **kw)
    if not res.ok:
        raise FgError(res.diagnostics)
    return res
