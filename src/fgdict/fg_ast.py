"""Featherweight Go abstract syntax, method sets, structural subtyping and
well-formedness (the four FG side conditions).

Type names are plain strings resolved against the declaration list.  In
extension mode the reserved names "int" and "bool" denote primitive types;
they are never declared.
"""

from __future__ import annotations

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
    SourceSpan,
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

_NO_SPAN = SourceSpan()


def _span_field():
    return field(default=_NO_SPAN, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class MethodSig:
    """Parameter list (name, type) pairs plus return type."""

    params: tuple
    ret: str

    @property
    def param_types(self):
        return tuple(t for _, t in self.params)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    sig: MethodSig

    def key(self):
        """Identity used for interface superset checks: parameter names are
        irrelevant for implementability, so they are excluded here."""
        return (self.name, self.sig.param_types, self.sig.ret)


@dataclass(frozen=True)
class StructType:
    """Struct type literal: ordered (field name, type) pairs."""

    fields: tuple

    @property
    def field_names(self):
        return tuple(f for f, _ in self.fields)

    @property
    def field_types(self):
        return tuple(t for _, t in self.fields)


@dataclass(frozen=True)
class InterfaceType:
    """Interface type literal: method specs in declaration order."""

    specs: tuple


@dataclass(frozen=True)
class TypeDecl:
    name: str
    literal: object  # StructType | InterfaceType
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Var:
    name: str
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class StructLit:
    type_name: str
    args: tuple
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Select:
    recv: object
    fld: str
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Call:
    recv: object
    method: str
    args: tuple
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Assert:
    expr: object
    type_name: str
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class IntLit:
    value: int
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    span: SourceSpan = _span_field()


EXT_NODES = (IntLit, BoolLit, BinOp)


@dataclass(frozen=True)
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
    """Indexed view over a declaration sequence."""

    def __init__(self, decls, mode=CORE):
        self.decls = tuple(decls)
        self.mode = mode
        self.types = {}
        self.struct_names = []  # declaration order
        self.iface_names = []
        self.method_decls = {}  # (recv_type, name) -> MethodDecl
        self.methods_by_recv = {}  # recv_type -> [MethodDecl], decl order
        for d in self.decls:
            if isinstance(d, TypeDecl):
                if d.name not in self.types:
                    self.types[d.name] = d
                    if isinstance(d.literal, StructType):
                        self.struct_names.append(d.name)
                    else:
                        self.iface_names.append(d.name)
            else:
                key = (d.recv_type, d.name)
                if key not in self.method_decls:
                    self.method_decls[key] = d
                    self.methods_by_recv.setdefault(d.recv_type, []).append(d)

    def is_declared(self, t):
        return t in self.types or (self.mode == EXT and t in PRIMITIVES)

    def kind(self, t):
        """'struct' | 'interface' | 'prim'; raises FgError for unknown names."""
        if self.mode == EXT and t in PRIMITIVES:
            return "prim"
        d = self.types.get(t)
        if d is None:
            raise FgError(Diagnostic(UNKNOWN_TYPE, f"unknown type {t}"))
        return "struct" if isinstance(d.literal, StructType) else "interface"

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
    method specs against an interface (parameter names ignored)."""
    if not decls.is_declared(t):
        raise FgError(Diagnostic(UNKNOWN_TYPE, f"unknown type {t}"))
    if not decls.is_declared(u):
        raise FgError(Diagnostic(UNKNOWN_TYPE, f"unknown type {u}"))
    if t == u and decls.kind(t) != "interface":
        return True
    if decls.kind(u) != "interface":
        return False
    if decls.kind(t) == "prim":
        # Primitives implement no methods; only the empty interface would
        # apply, and we keep primitives out of the interface world entirely.
        return False
    have = {s.key() for s in methods(decls, t)}
    return all(s.key() in have for s in decls.iface_specs(u))


def method_lookup(decls: Decls, t_s: str, m: str) -> MethodDecl | None:
    """The declaration of method m with receiver struct t_s, or None."""
    return decls.method_decls.get((t_s, m))


# ---------------------------------------------------------------------------
# Well-formedness


def program_exprs(prog: Program):
    """Every expression node of the method bodies, then of main, in
    pre-order, with an explicit stack."""
    stack = [prog.main]
    stack.extend(d.body for d in reversed(prog.decls) if isinstance(d, MethodDecl))
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, StructLit):
            stack.extend(reversed(e.args))
        elif isinstance(e, Call):
            stack.extend(reversed(e.args))
            stack.append(e.recv)
        elif isinstance(e, Select):
            stack.append(e.recv)
        elif isinstance(e, Assert):
            stack.append(e.expr)
        elif isinstance(e, BinOp):
            stack.append(e.right)
            stack.append(e.left)


def check_wellformed(prog: Program):
    """Check the four FG side conditions plus name resolution.  Returns a
    list of diagnostics; empty means well-formed."""
    diags = []
    table = prog.table
    mode = prog.mode

    def check_type_name(t, span, what="type"):
        if not table.is_declared(t):
            diags.append(Diagnostic(UNKNOWN_TYPE, f"unknown {what} {t}", span))

    seen_types = set()
    seen_methods = set()
    for d in prog.decls:
        if isinstance(d, TypeDecl):
            if d.name in PRIMITIVES and mode == EXT:
                diags.append(Diagnostic(DUP_TYPE, f"cannot redeclare primitive {d.name}", d.span))
            elif d.name in seen_types:
                diags.append(Diagnostic(DUP_TYPE, f"duplicate type declaration {d.name}", d.span))
            seen_types.add(d.name)
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
            key = (d.recv_type, d.name)
            if key in seen_methods:
                diags.append(Diagnostic(
                    FG4_DUP_METHOD,
                    f"duplicate method declaration ({d.recv_type}, {d.name})", d.span))
            seen_methods.add(key)
            td = table.types.get(d.recv_type)
            if td is None or not isinstance(td.literal, StructType):
                diags.append(Diagnostic(
                    UNKNOWN_TYPE, f"receiver type {d.recv_type} is not a declared struct", d.span))
            _check_sig(d.sig, d.span, diags, check_type_name, recv=d.recv_var)

    # FG1: the struct -> struct field graph must be acyclic.  Interface-typed
    # fields contribute no edges.
    edges = {
        name: [t for _, t in table.struct_fields(name)
               if t in table.types and isinstance(table.types[t].literal, StructType)]
        for name in table.struct_names
    }
    state = {}

    def dfs(n):
        state[n] = 1
        for m in edges.get(n, ()):
            if state.get(m) == 1:
                return True
            if state.get(m) is None and dfs(m):
                return True
        state[n] = 2
        return False

    for name in table.struct_names:
        if state.get(name) is None and dfs(name):
            diags.append(Diagnostic(
                FG1_RECURSIVE_STRUCT, f"recursive struct declaration involving {name}",
                table.types[name].span))

    for e in program_exprs(prog):
        if mode == CORE and isinstance(e, EXT_NODES):
            diags.append(Diagnostic(
                EXT_NODE_IN_CORE, "int/bool extension used in core mode", e.span))
        if isinstance(e, Assert):
            check_type_name(e.type_name, e.span, "asserted type")
        if isinstance(e, StructLit):
            check_type_name(e.type_name, e.span, "struct type")

    return diags


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
