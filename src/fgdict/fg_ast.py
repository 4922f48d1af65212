"""Featherweight Go abstract syntax, method sets, structural subtyping and
well-formedness (the four FG side conditions).

Type names are plain strings resolved against the declaration list.  In
extension mode the reserved names "int" and "bool" denote primitive types;
they are never declared.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

from .diagnostics import (
    DUP_PARAM,
    DUP_TYPE,
    EXT_NODE_IN_CORE,
    FG1_RECURSIVE_STRUCT,
    FG2_DUP_FIELD,
    FG3_DUP_SPEC,
    FG4_DUP_METHOD,
    UNKNOWN_TYPE,
    Diagnostic,
    FgError,
    NO_SPAN,
    SourceSpan,
    rebuild,
    record,
)

CORE = "core"
EXT = "ext"

INT = "int"
BOOL = "bool"
PRIMITIVES = (INT, BOOL)

# Binary operators of the extension, with operand/result types.
BINOPS = {
    "==": (INT, BOOL),
    "<": (INT, BOOL),
    "&&": (BOOL, BOOL),
    "||": (BOOL, BOOL),
}


def _span_field():
    return field(default=NO_SPAN, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Declarations


@record
class MethodSig:
    """Parameter list (name, type) pairs plus return type."""

    params: tuple
    ret: str

    @property
    def param_types(self):
        return tuple(t for _, t in self.params)


@record
class MethodSpec:
    name: str
    sig: MethodSig

    def key(self):
        """Identity used for interface superset checks: parameter names are
        irrelevant for implementability, so they are excluded here."""
        return (self.name, self.sig.param_types, self.sig.ret)


@record
class StructType:
    """Struct type literal: ordered (field name, type) pairs."""

    fields: tuple


@record
class InterfaceType:
    """Interface type literal: method specs in declaration order."""

    specs: tuple


@record
class TypeDecl:
    name: str
    literal: object  # StructType | InterfaceType
    span: SourceSpan = _span_field()


@record
class MethodDecl:
    recv_var: str
    recv_type: str
    name: str
    sig: MethodSig
    body: object  # expression
    span: SourceSpan = _span_field()

    def spec(self):
        return MethodSpec(self.name, self.sig)


# ---------------------------------------------------------------------------
# Expressions


@record
class Var:
    name: str
    span: SourceSpan = _span_field()


@record
class StructLit:
    type_name: str
    args: tuple
    span: SourceSpan = _span_field()


@record
class Select:
    recv: object
    fld: str
    span: SourceSpan = _span_field()


@record
class Call:
    recv: object
    method: str
    args: tuple
    span: SourceSpan = _span_field()


@record
class Assert:
    expr: object
    type_name: str
    span: SourceSpan = _span_field()


@record
class IntLit:
    value: int
    span: SourceSpan = _span_field()


@record
class BoolLit:
    value: bool
    span: SourceSpan = _span_field()


@record
class BinOp:
    op: str
    left: object
    right: object
    span: SourceSpan = _span_field()


def children(e):
    """The subexpressions of `e` in evaluation order: struct arguments left
    to right, then receiver, then call arguments left to right, and the
    left operand before the right."""
    t = type(e)
    if t is Call:
        return (e.recv, *e.args)
    if t is StructLit:
        return e.args
    if t is Select:
        return (e.recv,)
    if t is Assert:
        return (e.expr,)
    if t is BinOp:
        return (e.left, e.right)
    if t is Var or t is IntLit or t is BoolLit:
        return ()
    raise TypeError(f"not an FG expression: {e!r}")


def remake(e, subs):
    """`e` with its subexpressions, in `children` order, replaced by `subs`."""
    t = type(e)
    if t is Call:
        return Call(subs[0], e.method, tuple(subs[1:]), e.span)
    if t is StructLit:
        return StructLit(e.type_name, tuple(subs), e.span)
    if t is Select:
        return Select(subs[0], e.fld, e.span)
    if t is Assert:
        return Assert(subs[0], e.type_name, e.span)
    return BinOp(e.op, subs[0], subs[1], e.span)


def subst(e, env):
    """`e` with each variable bound in `env` replaced by its binding, all at
    once; FG expressions bind nothing, so no capture can happen.  Terms of
    any depth substitute (see `rebuild`); an empty `env` returns `e`."""
    if not env:
        return e

    def build(e, subs):
        if subs:
            return remake(e, subs)
        return env.get(e.name, e) if type(e) is Var else e

    return rebuild(e, children, build)


@dataclass(frozen=True)  # not a `record`: its cached `table` lives in __dict__
class Program:
    decls: tuple
    main: object
    mode: str = CORE

    @cached_property
    def table(self):
        return Decls(self.decls, self.mode)


# ---------------------------------------------------------------------------
# Declaration table and judgments


class Decls:
    """Indexed view over a declaration sequence, and the facts derived from
    it: each name's kind, each declared type's method-spec keys, each
    interface's implementing structs, each struct's field indices and the
    subtyping answers asked so far.  Building it never raises, so
    `check_wellformed` can use the table of an ill-formed program; the first
    declaration of a name or method wins.
    """

    def __init__(self, decls, mode=CORE):
        self.decls = tuple(decls)
        self.mode = mode
        self.types = {}
        self.struct_names = []  # declaration order
        self.iface_names = []
        # positions of the declarations an earlier one wins over
        self.repeats = self._index_methods()
        for i, d in enumerate(self.decls):
            if isinstance(d, TypeDecl):
                if d.name in self.types:
                    self.repeats.add(i)
                else:
                    self.types[d.name] = d
                    if isinstance(d.literal, StructType):
                        self.struct_names.append(d.name)
                    else:
                        self.iface_names.append(d.name)
        self.kinds = dict.fromkeys(self.struct_names, "struct")
        self.kinds.update(dict.fromkeys(self.iface_names, "interface"))
        if mode == EXT:
            self.kinds.update(dict.fromkeys(PRIMITIVES, "prim"))
        self.subtypes = {}  # (t, u) -> is_subtype answer
        self.spec_keys = {t: frozenset(s.key() for s in methods(self, t))
                          for t in self.types}
        self.implementers = {  # interface -> [struct], declaration order
            u: [t for t in self.struct_names if self.spec_keys[u] <= self.spec_keys[t]]
            for u in self.iface_names}
        self.field_index = {  # struct -> {field: index}
            s: {f: j for j, (f, _t) in enumerate(self.types[s].literal.fields)}
            for s in self.struct_names}

    def _index_methods(self):
        """Index the method declarations; the positions of the repeated ones."""
        self.method_decls = {}  # (recv_type, name) -> MethodDecl
        self.methods_by_recv = {}  # recv_type -> [MethodDecl], decl order
        repeats = set()
        for i, d in enumerate(self.decls):
            if isinstance(d, MethodDecl):
                key = (d.recv_type, d.name)
                if key in self.method_decls:
                    repeats.add(i)
                else:
                    self.method_decls[key] = d
                    self.methods_by_recv.setdefault(d.recv_type, []).append(d)
        return repeats

    def with_bodies(self, decls):
        """The table of `decls`, which differ from this table's declarations
        only in method bodies: it shares every derived fact, subtyping
        answers included, and indexes the new method declarations."""
        table = copy.copy(self)
        table.decls = tuple(decls)
        table._index_methods()
        return table

    def kind(self, t):
        """'struct' | 'interface' | 'prim'; raises FgError for unknown names."""
        k = self.kinds.get(t)
        if k is None:
            raise FgError(Diagnostic(UNKNOWN_TYPE, f"unknown type {t}"))
        return k

    def struct_fields(self, t_s):
        d = self.types.get(t_s)
        if d is None or not isinstance(d.literal, StructType):
            raise FgError(Diagnostic(UNKNOWN_TYPE, f"{t_s} is not a declared struct"))
        return d.literal.fields

    def iface_specs(self, t_i):
        d = self.types.get(t_i)
        if d is None or not isinstance(d.literal, InterfaceType):
            raise FgError(Diagnostic(UNKNOWN_TYPE, f"{t_i} is not a declared interface"))
        return d.literal.specs


def methods(decls: Decls, t: str):
    """Method specs of a type: for a struct, the specs of its method
    declarations in declaration order; for an interface, its declared specs."""
    kind = decls.kind(t)
    if kind == "prim":
        return ()
    if kind == "struct":
        return tuple(d.spec() for d in decls.methods_by_recv.get(t, ()))
    return decls.iface_specs(t)


def is_subtype(decls: Decls, t: str, u: str) -> bool:
    """Structural subtyping: reflexive on structs/primitives, superset of
    method specs against an interface (parameter names ignored).  Each
    answer is kept in `decls.subtypes`; an undeclared name raises FgError on
    every call."""
    ok = decls.subtypes.get((t, u))
    if ok is None:
        kinds = decls.kinds
        for name in (t, u):
            if name not in kinds:
                raise FgError(Diagnostic(UNKNOWN_TYPE, f"unknown type {name}"))
        # Primitives implement no methods; only the empty interface would
        # apply, and we keep primitives out of the interface world entirely.
        ok = decls.subtypes[t, u] = t == u or (
            kinds[u] == "interface" and kinds[t] != "prim" and
            decls.spec_keys[u] <= decls.spec_keys[t])
    return ok


# ---------------------------------------------------------------------------
# Well-formedness


def program_exprs(prog: Program):
    """Every expression node of the method bodies, then of main, in
    pre-order."""
    bodies = [d.body for d in prog.decls if isinstance(d, MethodDecl)]
    return expr_nodes(*bodies, prog.main)


def expr_nodes(*roots):
    """Every expression node of each root in turn, in pre-order, with an
    explicit stack."""
    stack = list(reversed(roots))
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed(children(e)))


def check_wellformed(prog: Program):
    """Check the four FG side conditions plus name resolution.  Returns a
    list of diagnostics; empty means well-formed."""
    diags = []
    table = prog.table
    mode = prog.mode

    def check_type_name(t, span, what):
        if t not in table.kinds:
            diags.append(Diagnostic(UNKNOWN_TYPE, f"unknown {what} {t}", span))

    for i, d in enumerate(prog.decls):
        if isinstance(d, TypeDecl):
            if d.name in PRIMITIVES and mode == EXT:
                diags.append(Diagnostic(DUP_TYPE, f"cannot redeclare primitive {d.name}", d.span))
            elif i in table.repeats:
                diags.append(Diagnostic(DUP_TYPE, f"duplicate type declaration {d.name}", d.span))
            if isinstance(d.literal, StructType):
                seen_fields = set()
                for f, t in d.literal.fields:
                    if f in seen_fields:
                        diags.append(Diagnostic(
                            FG2_DUP_FIELD, f"duplicate field {f} in struct {d.name}", d.span))
                    seen_fields.add(f)
                    check_type_name(t, d.span, "field type")
            else:
                seen_names = set()
                for s in d.literal.specs:
                    if s.name in seen_names:
                        diags.append(Diagnostic(
                            FG3_DUP_SPEC, f"duplicate method {s.name} in interface {d.name}", d.span))
                    seen_names.add(s.name)
                    _check_sig(s.sig, d.span, diags, check_type_name, recv=None)
        else:
            if i in table.repeats:
                diags.append(Diagnostic(
                    FG4_DUP_METHOD,
                    f"duplicate method declaration ({d.recv_type}, {d.name})", d.span))
            if d.recv_type not in table.field_index:
                diags.append(Diagnostic(
                    UNKNOWN_TYPE, f"receiver type {d.recv_type} is not a declared struct", d.span))
            _check_sig(d.sig, d.span, diags, check_type_name, recv=d.recv_var)

    # FG1: the struct -> struct field graph must be acyclic.  Interface-typed
    # fields contribute no edges.  A cycle is a strongly connected component
    # with an edge inside it.  Each is reported once, at its first-declared
    # member, naming its members in declaration order.
    order = {name: i for i, name in enumerate(table.struct_names)}
    edges = {
        name: [t for _, t in table.struct_fields(name) if t in table.field_index]
        for name in table.struct_names
    }
    cycles = {}  # first-declared member -> the members of its cycle
    for comp in _components(table.struct_names, edges):
        if len(comp) > 1 or comp[0] in edges[comp[0]]:
            comp.sort(key=order.__getitem__)
            cycles[comp[0]] = comp
    for name in table.struct_names:
        if name in cycles:
            diags.append(Diagnostic(
                FG1_RECURSIVE_STRUCT,
                f"recursive struct declaration involving {', '.join(cycles[name])}",
                table.types[name].span))

    # Every expression node of the method bodies, then of main, in
    # pre-order, its subexpressions read by its type in `children` order.
    core = mode == CORE
    stack = [prog.main, *[d.body for d in reversed(prog.decls) if isinstance(d, MethodDecl)]]
    push, pop = stack.append, stack.pop
    while stack:
        e = pop()
        t = type(e)
        if t is Call:
            stack += reversed(e.args)
            push(e.recv)
        elif t is Select:
            push(e.recv)
        elif t is StructLit:
            check_type_name(e.type_name, e.span, "struct type")
            stack += reversed(e.args)
        elif t is Assert:
            check_type_name(e.type_name, e.span, "asserted type")
            push(e.expr)
        elif t is BinOp or t is IntLit or t is BoolLit:
            if core:
                diags.append(Diagnostic(
                    EXT_NODE_IN_CORE, "int/bool extension used in core mode", e.span))
            if t is BinOp:
                push(e.right)
                push(e.left)
        elif t is not Var:
            raise TypeError(f"not an FG expression: {e!r}")

    return diags


def _components(nodes, edges):
    """The strongly connected components of a graph, as lists, by Tarjan's
    algorithm with the depth-first search kept on an explicit stack."""
    index = {}  # node -> its depth-first number
    low = {}  # node -> the lowest number it reaches within its component
    open_nodes = []  # visited nodes whose component is not yet complete
    on_stack = set()
    work = []  # the search path: (node, its successors not yet looked at)

    def visit(n):
        index[n] = low[n] = len(index)
        open_nodes.append(n)
        on_stack.add(n)
        work.append((n, iter(edges[n])))

    for root in nodes:
        if root not in index:
            visit(root)
        while work:
            n, succ = work[-1]
            for m in succ:
                if m not in index:
                    visit(m)
                    break
                if m in on_stack:
                    low[n] = min(low[n], index[m])
            else:
                work.pop()
                if work:
                    p = work[-1][0]
                    low[p] = min(low[p], low[n])
                if low[n] == index[n]:
                    comp = []
                    while True:
                        m = open_nodes.pop()
                        on_stack.discard(m)
                        comp.append(m)
                        if m == n:
                            break
                    yield comp


def _check_sig(sig, span, diags, check_type_name, recv):
    seen = set() if recv is None else {recv}
    for x, t in sig.params:
        if x in seen:
            diags.append(Diagnostic(DUP_PARAM, f"duplicate parameter name {x}", span))
        seen.add(x)
        check_type_name(t, span, "parameter type")
    check_type_name(sig.ret, span, "return type")


def require_wellformed(prog: Program):
    diags = check_wellformed(prog)
    if diags:
        raise FgError(diags)
    return prog
