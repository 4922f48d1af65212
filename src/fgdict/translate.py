"""Type-directed dictionary-passing translation from FG to TL.

The translator doubles as the FG type checker: erasing the emitted code
from the rules leaves exactly the typing rules, so a program translates
without diagnostics iff it type-checks.

Interface values are constructor applications K_I(value, dict...) where the
dictionary entries are method variables in the interface's spec order.
Upcast and downcast helpers are emitted inline by default; with
hoist_helpers=True they become named let bindings (to_I_T / from_I_U) after
the method bindings, matching the presentation style of hand-written
dictionary-passing code.  Every TL name is spelled by `tl_ast`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import fg_ast as fg
from . import tl_ast as tl
from .diagnostics import (
    ARITY_MISMATCH,
    ASSERT_ON_STRUCT,
    NOT_A_STRUCT,
    NOT_A_SUBTYPE,
    PRIM_OP_TYPE,
    UNIMPLEMENTED_IFACE,
    UNKNOWN_FIELD,
    UNKNOWN_METHOD,
    UNKNOWN_TYPE,
    UNKNOWN_VAR,
    Diagnostic,
    FgError,
)

class _TypeErr(Exception):
    def __init__(self, diag):
        self.diag = diag
        super().__init__(str(diag))


class _Fresh:
    """Fresh TL variables, numbered from 0."""

    def __init__(self):
        self.n = 0

    def __call__(self):
        name = tl.fresh_var(self.n)
        self.n += 1
        return name


@dataclass
class Translation:
    tl_program: object  # TLProgram | None if diagnostics contains errors
    main_type: str | None
    diagnostics: list
    warnings: list
    rule_counts: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.diagnostics


class Translator:
    def __init__(self, decls: fg.Decls, hoist_helpers=False,
                 inject_identity_upcasts=False, counts=None):
        self.decls = decls
        self.hoist = hoist_helpers
        self.inject_identity = inject_identity_upcasts
        self.counts = counts if counts is not None else {}
        self.helpers = {}  # name -> Lam, insertion ordered
        self.warnings = []
        self.fresh = _Fresh()

    def count(self, rule):
        self.counts[rule] = self.counts.get(rule, 0) + 1

    # -- expressions -------------------------------------------------------

    def infer_expr(self, env, e):
        """Syntax-directed synthesis: returns (minimal type, TL code)."""
        decls = self.decls

        if isinstance(e, fg.Var):
            if e.name not in env:
                raise _TypeErr(Diagnostic(UNKNOWN_VAR, f"unknown variable {e.name}", e.span))
            self.count("td-var")
            return env[e.name], tl.TLVar(tl.fg_var(e.name))

        if isinstance(e, fg.StructLit):
            if not decls.is_declared(e.type_name) or decls.kind(e.type_name) != "struct":
                raise _TypeErr(Diagnostic(
                    UNKNOWN_TYPE, f"{e.type_name} is not a declared struct", e.span))
            fields = decls.struct_fields(e.type_name)
            if len(fields) != len(e.args):
                raise _TypeErr(Diagnostic(
                    ARITY_MISMATCH,
                    f"struct {e.type_name} has {len(fields)} fields, got {len(e.args)}",
                    e.span))
            args = tuple(self.check_expr(env, a, t) for a, (_f, t) in zip(e.args, fields))
            self.count("td-struct")
            return e.type_name, tl.CtorApp(tl.struct_ctor(e.type_name), args)

        if isinstance(e, fg.Select):
            t_recv, code = self.infer_expr(env, e.recv)
            if decls.kind(t_recv) != "struct":
                raise _TypeErr(Diagnostic(
                    NOT_A_STRUCT, f"field selection on non-struct type {t_recv}", e.span))
            fields = decls.struct_fields(t_recv)
            names = [f for f, _t in fields]
            if e.fld not in names:
                raise _TypeErr(Diagnostic(
                    UNKNOWN_FIELD, f"no field {e.fld} on {t_recv}", e.span))
            i = names.index(e.fld)
            self.count("td-access")
            vars_ = tuple(self.fresh() for _ in fields)
            clause = tl.Clause(tl.Pattern(tl.struct_ctor(t_recv), vars_), tl.TLVar(vars_[i]))
            return fields[i][1], tl.Case(code, (clause,))

        if isinstance(e, fg.Call):
            return self._infer_call(env, e)

        if isinstance(e, fg.Assert):
            return self._infer_assert(env, e)

        if isinstance(e, fg.IntLit):
            return fg.INT, tl.TLInt(e.value)

        if isinstance(e, fg.BoolLit):
            return fg.BOOL, tl.TLBool(e.value)

        if isinstance(e, fg.BinOp):
            operand, result = fg.BINOPS[e.op]
            left = self.check_expr(env, e.left, operand, code=PRIM_OP_TYPE)
            right = self.check_expr(env, e.right, operand, code=PRIM_OP_TYPE)
            return result, tl.TLPrim(e.op, left, right)

        raise TypeError(f"not an FG expression: {e!r}")

    def _infer_call(self, env, e):
        decls = self.decls
        t_recv, code = self.infer_expr(env, e.recv)
        kind = decls.kind(t_recv)
        if kind == "prim":
            raise _TypeErr(Diagnostic(
                UNKNOWN_METHOD, f"method call on primitive type {t_recv}", e.span))
        if kind == "struct":
            d = decls.method_decls.get((t_recv, e.method))
            if d is None:
                raise _TypeErr(Diagnostic(
                    UNKNOWN_METHOD, f"no method {e.method} on {t_recv}", e.span))
            sig = d.sig
            args = self._check_args(env, e, sig)
            self.count("td-call-struct")
            fn = tl.MethodVar(tl.method_var_name(e.method, t_recv))
            return sig.ret, tl.App(tl.App(fn, code), tl.make_tuple(args))
        specs = decls.iface_specs(t_recv)
        idx = next((j for j, s in enumerate(specs) if s.name == e.method), None)
        if idx is None:
            raise _TypeErr(Diagnostic(
                UNKNOWN_METHOD, f"interface {t_recv} has no method {e.method}", e.span))
        sig = specs[idx].sig
        args = self._check_args(env, e, sig)
        self.count("td-call-iface")
        x = self.fresh()
        slots = tuple(self.fresh() for _ in specs)
        call = tl.App(tl.App(tl.TLVar(slots[idx]), tl.TLVar(x)), tl.make_tuple(args))
        clause = tl.Clause(tl.Pattern(tl.struct_ctor(t_recv), (x,) + slots), call)
        return sig.ret, tl.Case(code, (clause,))

    def _check_args(self, env, e, sig):
        if len(sig.params) != len(e.args):
            raise _TypeErr(Diagnostic(
                ARITY_MISMATCH,
                f"method {e.method} expects {len(sig.params)} arguments, got {len(e.args)}",
                e.span))
        return tuple(self.check_expr(env, a, t)
                     for a, (_x, t) in zip(e.args, sig.params))

    def _infer_assert(self, env, e):
        decls = self.decls
        t_expr, code = self.infer_expr(env, e.expr)
        if decls.kind(t_expr) != "interface":
            raise _TypeErr(Diagnostic(
                ASSERT_ON_STRUCT,
                f"type assertion on non-interface-typed expression (type {t_expr})",
                e.span))
        if not decls.is_declared(e.type_name) or decls.kind(e.type_name) == "prim":
            raise _TypeErr(Diagnostic(
                UNKNOWN_TYPE, f"asserted type {e.type_name} is not declared", e.span))
        if decls.kind(e.type_name) == "struct" and \
                not fg.is_subtype(decls, e.type_name, t_expr):
            raise _TypeErr(Diagnostic(
                NOT_A_SUBTYPE,
                f"assertion to {e.type_name} can never succeed: "
                f"{e.type_name} does not implement {t_expr}",
                e.span))
        self.count("td-assert")
        return e.type_name, tl.App(self.build_downcast(t_expr, e.type_name), code)

    def check_expr(self, env, e, want, code=NOT_A_SUBTYPE):
        """Infer then coerce: the single place where subsumption applies."""
        have, out = self.infer_expr(env, e)
        return self.coerce_to(have, want, out, span=e.span, diag_code=code)

    def coerce_to(self, have, want, code, span=None, diag_code=NOT_A_SUBTYPE):
        decls = self.decls
        if have == want:
            out = code
        elif decls.is_declared(want) and decls.kind(want) == "interface" and \
                fg.is_subtype(decls, have, want):
            self.count("td-sub")
            out = tl.App(self.build_upcast(have, want), code)
        else:
            raise _TypeErr(Diagnostic(
                diag_code, f"{have} is not a subtype of {want}", span or fg._NO_SPAN))
        if self.inject_identity and decls.is_declared(want) and \
                decls.kind(want) == "interface":
            out = tl.App(self.build_upcast(want, want), out)
        return out

    # -- interface-value constructors and destructors ----------------------

    def build_upcast(self, t, u_i):
        decls = self.decls
        assert decls.kind(u_i) == "interface"
        name = tl.upcast_name(t, u_i)
        if self.hoist and name in self.helpers:
            return tl.MethodVar(name)
        fresh = _Fresh()
        specs = decls.iface_specs(u_i)
        if decls.kind(t) == "struct":
            self.count("td-cons-struct-iface")
            assert fg.is_subtype(decls, t, u_i)
            x = fresh()
            slots = tuple(tl.MethodVar(tl.method_var_name(s.name, t)) for s in specs)
            lam = tl.Lam(x, tl.CtorApp(tl.struct_ctor(u_i), (tl.TLVar(x),) + slots))
        else:
            self.count("td-cons-iface-iface")
            given = decls.iface_specs(t)
            keys = [r.key() for r in given]
            perm = [keys.index(s.key()) for s in specs]  # guaranteed by subtyping
            x = fresh()
            xv = fresh()
            xs = tuple(fresh() for _ in given)
            body = tl.CtorApp(tl.struct_ctor(u_i),
                              (tl.TLVar(xv),) + tuple(tl.TLVar(xs[p]) for p in perm))
            clause = tl.Clause(tl.Pattern(tl.struct_ctor(t), (xv,) + xs), body)
            lam = tl.Lam(x, tl.Case(tl.TLVar(x), (clause,)))
        if self.hoist:
            self.helpers[name] = lam
            return tl.MethodVar(name)
        return lam

    def build_downcast(self, t_i, u):
        decls = self.decls
        assert decls.kind(t_i) == "interface"
        name = tl.downcast_name(t_i, u)
        if self.hoist and name in self.helpers:
            return tl.MethodVar(name)
        fresh = _Fresh()
        n = len(decls.iface_specs(t_i))
        x = fresh()
        if decls.kind(u) == "struct":
            self.count("td-destr-iface-struct")
            assert fg.is_subtype(decls, u, t_i)
            z = fresh()
            dict_vars = tuple(fresh() for _ in range(n))
            ys = tuple(fresh() for _ in decls.struct_fields(u))
            inner = tl.Case(tl.TLVar(z), (tl.Clause(
                tl.Pattern(tl.struct_ctor(u), ys),
                tl.CtorApp(tl.struct_ctor(u), tuple(tl.TLVar(y) for y in ys))),))
            outer = tl.Case(tl.TLVar(x), (tl.Clause(
                tl.Pattern(tl.struct_ctor(t_i), (z,) + dict_vars), inner),))
            lam = tl.Lam(x, outer)
        else:
            self.count("td-destr-iface-iface")
            specs = decls.iface_specs(u)
            y = fresh()
            dict_vars = tuple(fresh() for _ in range(n))
            clauses = []
            for t_sj in decls.struct_names:
                if not fg.is_subtype(decls, t_sj, u):
                    continue
                # Build the target interface value directly (the reduct of the
                # struct upcast), so a successful destructor costs exactly one
                # lambda plus two pattern matches.
                ys = tuple(fresh() for _ in decls.struct_fields(t_sj))
                repacked = tl.CtorApp(tl.struct_ctor(t_sj), tuple(tl.TLVar(v) for v in ys))
                slots = tuple(tl.MethodVar(tl.method_var_name(s.name, t_sj)) for s in specs)
                clauses.append(tl.Clause(
                    tl.Pattern(tl.struct_ctor(t_sj), ys),
                    tl.CtorApp(tl.struct_ctor(u), (repacked,) + slots)))
            if not clauses:
                self.warnings.append(Diagnostic(
                    UNIMPLEMENTED_IFACE,
                    f"no struct implements {u}; assertion to it always fails",
                    severity="warning"))
            inner = tl.Case(tl.TLVar(y), tuple(clauses))
            outer = tl.Case(tl.TLVar(x), (tl.Clause(
                tl.Pattern(tl.struct_ctor(t_i), (y,) + dict_vars), inner),))
            lam = tl.Lam(x, outer)
        if self.hoist:
            self.helpers[name] = lam
            return tl.MethodVar(name)
        return lam

    # -- methods and programs ----------------------------------------------

    def translate_method(self, d: fg.MethodDecl):
        """Curried lambda over the receiver, then a tuple-pattern lambda over
        the parameters, body coerced to the declared return type."""
        self.fresh = _Fresh()
        env = {d.recv_var: d.recv_type}
        env.update({x: t for x, t in d.sig.params})
        body = self.check_expr(env, d.body, d.sig.ret)
        self.count("td-method")
        arg = self.fresh()
        pat = tl.Pattern(tl.tuple_ctor(len(d.sig.params)),
                         tuple(tl.fg_var(x) for x, _t in d.sig.params))
        lam = tl.Lam(tl.fg_var(d.recv_var),
                     tl.Lam(arg, tl.Case(tl.TLVar(arg), (tl.Clause(pat, body),))))
        return tl.method_var_name(d.name, d.recv_type), lam

    def translate_main(self, main):
        self.fresh = _Fresh()
        t, code = self.infer_expr({}, main)
        return t, code


def translate_method(decls: fg.Decls, d: fg.MethodDecl, hoist_helpers=False):
    """Standalone, deterministic translation of one method declaration."""
    tr = Translator(decls, hoist_helpers=hoist_helpers)
    return tr.translate_method(d)


def translate_program(prog: fg.Program, hoist_helpers=False,
                      inject_identity_upcasts=False) -> Translation:
    """Check a program, then translate it.  An ill-formed program gets its
    well-formedness diagnostics and no translation; type diagnostics are
    aggregated instead of stopping at the first."""
    diags = fg.check_wellformed(prog)
    if diags:
        return Translation(None, None, diags, [])
    tr = Translator(prog.table, hoist_helpers=hoist_helpers,
                    inject_identity_upcasts=inject_identity_upcasts)
    bindings = []
    for d in prog.decls:
        if not isinstance(d, fg.MethodDecl):
            continue
        try:
            bindings.append(tr.translate_method(d))
        except _TypeErr as err:
            diags.append(err.diag)
    main_type = None
    main_code = None
    try:
        main_type, main_code = tr.translate_main(prog.main)
    except _TypeErr as err:
        diags.append(err.diag)
    tr.count("td-prog")
    if diags:
        return Translation(None, None, diags, tr.warnings, tr.counts)
    bindings.extend(tr.helpers.items())
    out = tl.TLProgram(tuple(bindings), main_code)
    return Translation(out, main_type, [], tr.warnings, tr.counts)


def require_translation(prog: fg.Program, **kw) -> Translation:
    """The checked pipeline: well-formedness, then translation.  Raises
    FgError with the diagnostics of an ill-formed or ill-typed program."""
    res = translate_program(prog, **kw)
    if not res.ok:
        raise FgError(res.diagnostics)
    return res
