"""Random generation of well-formed, well-typed FG programs, plus greedy
shrinking.  Output is deterministic per (seed, config).

Strategy: struct names first, then method templates shared across several
receivers (so interfaces end up with multiple implementers), then interfaces
as subsets of one struct's realized spec set (so every interface has a
witness), then struct fields restricted to earlier structs and to interfaces
already implemented by an earlier struct (acyclicity and constructibility by
induction), and finally goal-directed bodies and main.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from . import fg_ast as fg
from .diagnostics import FgError, rebuild
from .translate import (Translation, Translator, method_env, require_translation,
                        translate_program)

ASSERT_PROBABILITY = 0.3


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_structs: int = 4
    max_ifaces: int = 3
    max_methods_per_iface: int = 2
    max_fields: int = 3
    expr_depth: int = 4
    mode: str = fg.CORE

    def __post_init__(self):
        if min(self.max_structs, self.max_ifaces + 1, self.max_methods_per_iface,
               self.max_fields + 1, self.expr_depth + 1) < 1:
            raise ValueError("generator bounds must be >= 1")


class _Gen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.ext = cfg.mode == fg.EXT

    def run(self) -> fg.Program:
        rng = self.rng
        cfg = self.cfg
        n_structs = rng.randint(1, cfg.max_structs)
        self.structs = [f"S{i}" for i in range(n_structs)]
        n_ifaces = rng.randint(min(1, cfg.max_ifaces), cfg.max_ifaces)
        self.ifaces = [f"I{i}" for i in range(n_ifaces)]
        self.prims = (fg.INT, fg.BOOL) if self.ext else ()

        self._gen_templates()
        self._gen_iface_defs()
        self._gen_fields()
        self._build_table()
        decls = self._declarations()
        # Main may call anything: the call graph is stratified by template
        # index, so evaluation always terminates.
        self.call_ceiling = len(self.templates)
        main = self.gen_expr(
            {}, rng.choice(self.structs + self.ifaces), cfg.expr_depth)
        return fg.Program(tuple(decls), main, cfg.mode)

    # -- declaration skeleton ---------------------------------------------

    def _sig_types(self):
        return self.structs + self.ifaces + list(self.prims)

    def _gen_templates(self):
        rng = self.rng
        n_templates = rng.randint(1, max(2, len(self.structs)))
        self.templates = []
        for i in range(n_templates):
            n_params = rng.randint(0, 2)
            params = []
            for j in range(n_params):
                # Bias parameters toward interface types so interface-receiver
                # calls show up in bodies.
                pool = self.ifaces * 3 + self._sig_types()
                params.append((f"p{j}", rng.choice(pool)))
            ret = rng.choice(self._sig_types())
            self.templates.append(fg.MethodSpec(f"m{i}", fg.MethodSig(tuple(params), ret)))
        self.template_index = {t.name: i for i, t in enumerate(self.templates)}
        # Assign each template to a nonempty set of receivers.
        self.impls = {s: [] for s in self.structs}  # struct -> [template index]
        for i, _t in enumerate(self.templates):
            k = rng.randint(1, len(self.structs))
            for s in rng.sample(self.structs, k):
                self.impls[s].append(i)
        for s in self.impls:
            self.impls[s].sort()

    def _gen_iface_defs(self):
        rng = self.rng
        self.iface_defs = {}
        # Every template has a receiver, so some struct owns methods, and each
        # interface is implemented at least by the struct its specs come from.
        owners = [s for s in self.structs if self.impls[s]]
        for name in self.ifaces:
            owned = self.impls[rng.choice(owners)]
            k = rng.randint(1, min(len(owned), self.cfg.max_methods_per_iface))
            specs = tuple(self.templates[i] for i in sorted(rng.sample(owned, k)))
            self.iface_defs[name] = fg.InterfaceType(specs)

    def _gen_fields(self):
        rng = self.rng
        # Methods are instances of templates, so struct s implements
        # interface I iff the templates of I's specs are among impls[s].
        specs = {I: {self.template_index[sp.name] for sp in d.specs}
                 for I, d in self.iface_defs.items()}
        self.fields = {}
        for i, s in enumerate(self.structs):
            earlier = self.structs[:i]
            allowed = earlier + list(self.prims)
            allowed += [I for I in self.ifaces
                        if any(specs[I].issubset(self.impls[t]) for t in earlier)]
            n = rng.randint(0, self.cfg.max_fields) if allowed else 0
            self.fields[s] = tuple((f"f{j}", rng.choice(allowed)) for j in range(n))

    def _build_table(self):
        """Every declaration, with placeholder method bodies: the table that
        body generation types against."""
        decls = []
        for s in self.structs:
            decls.append(fg.TypeDecl(s, fg.StructType(self.fields[s])))
        for name in self.ifaces:
            decls.append(fg.TypeDecl(name, self.iface_defs[name]))
        for s in self.structs:
            for t in self.impls[s]:
                spec = self.templates[t]
                decls.append(fg.MethodDecl("this", s, spec.name, spec.sig,
                                           fg.Var("this")))
        self.table = fg.Decls(decls, self.cfg.mode)

    def _declarations(self):
        """The table's declarations, with a generated body for each method."""
        decls = []
        for d in self.table.decls:
            if isinstance(d, fg.MethodDecl):
                env = method_env(d)
                # Bodies may only call strictly earlier templates, which keeps
                # the call graph acyclic and evaluation terminating.
                self.call_ceiling = self.template_index[d.name]
                d = replace(d, body=self.gen_expr(env, d.sig.ret, self.cfg.expr_depth))
            decls.append(d)
        return decls

    # -- expressions -------------------------------------------------------

    def _subtype(self, t, u):
        return fg.is_subtype(self.table, t, u)

    def gen_expr(self, env, want, depth):
        """Expression whose synthesized type is `want` for structs and
        primitives, or any subtype of `want` for interfaces."""
        rng = self.rng
        kind = self.table.kind(want)
        opts = []

        for x, t in env.items():
            if t == want or (kind == "interface" and self._subtype(t, want)):
                opts += [("var", x)] * 2

        if kind == "struct":
            opts.append(("literal", want))
        elif kind == "interface":
            if depth > 0:
                opts.append(("literal", rng.choice(self.table.implementers[want])))
            for I in self.ifaces:
                if I != want and self._subtype(I, want):
                    for x, t in env.items():
                        if t == I:
                            opts.append(("var", x))
        else:
            opts.append(("prim", want))

        if depth > 0:
            for s in self.structs:
                for ti in self.impls[s]:
                    spec = self.templates[ti]
                    if ti < self.call_ceiling and self._fits(spec.sig.ret, want, kind):
                        opts += [("call-struct", s, spec)] * 2
            for I in self.ifaces:
                for spec in self.iface_defs[I].specs:
                    if self._callable(spec) and \
                            self._fits(spec.sig.ret, want, kind) and \
                            self._exact_iface_opts(env, I, depth - 1):
                        opts += [("call-iface", I, spec)] * 6
            for s in self.structs:
                for f, t in self.fields[s]:
                    if self._fits(t, want, kind):
                        opts.append(("select", s, f))
            if rng.random() < ASSERT_PROBABILITY:
                if kind == "struct":
                    sources = [I for I in self.ifaces
                               if self._subtype(want, I) and
                               self._exact_iface_opts(env, I, depth - 1)]
                elif kind == "interface":
                    sources = [I for I in self.ifaces
                               if I != want and self._exact_iface_opts(env, I, depth - 1)]
                else:
                    sources = []
                if sources:
                    opts += [("assert", rng.choice(sources), want)] * 3
            if kind == "prim" and self.ext:
                opts.append(("binop", want))

        choice = rng.choice(opts) if opts else ("minimal", want)
        return self._emit(env, want, depth, choice)

    def _fits(self, have, want, kind):
        if kind == "interface":
            return self._subtype(have, want)
        return have == want

    def _iface_receivers(self, env, iface):
        return [x for x, t in env.items() if t == iface]

    def _callable(self, spec):
        return self.template_index.get(spec.name, len(self.templates)) < self.call_ceiling

    def _exact_iface_opts(self, env, iface, depth):
        """Options that synthesize exactly `iface` — required for assertion
        subjects and interface-receiver calls (FG has no upcast syntax)."""
        opts = [("var", x) for x, t in env.items() if t == iface]
        if depth > 0:
            for s in self.structs:
                for ti in self.impls[s]:
                    spec = self.templates[ti]
                    if ti < self.call_ceiling and spec.sig.ret == iface:
                        opts.append(("call-struct", s, spec))
            for J in self.ifaces:
                for spec in self.iface_defs[J].specs:
                    if self._callable(spec) and spec.sig.ret == iface and \
                            self._iface_receivers(env, J):
                        opts.append(("call-iface", J, spec))
            for s in self.structs:
                for f, t in self.fields[s]:
                    if t == iface:
                        opts.append(("select", s, f))
        return opts

    def _emit(self, env, want, depth, choice):
        rng = self.rng
        op = choice[0]
        if op == "var":
            return fg.Var(choice[1])
        if op == "literal":
            s = choice[1]
            return fg.StructLit(s, tuple(
                self.gen_expr(env, t, max(0, depth - 1)) for _f, t in self.fields[s]))
        if op == "prim":
            if want == fg.INT:
                return fg.IntLit(rng.randint(0, 9))
            return fg.BoolLit(rng.random() < 0.5)
        if op == "binop":
            if want == fg.BOOL:
                o = rng.choice(list(fg.BINOPS))
                operand = fg.BINOPS[o][0]
                return fg.BinOp(o, self.gen_expr(env, operand, depth - 1),
                                self.gen_expr(env, operand, depth - 1))
            return fg.IntLit(rng.randint(0, 9))
        if op == "call-struct":
            _o, s, spec = choice
            recv = self.gen_expr(env, s, depth - 1)
            args = tuple(self.gen_expr(env, t, depth - 1) for _x, t in spec.sig.params)
            return fg.Call(recv, spec.name, args)
        if op == "call-iface":
            _o, iface, spec = choice
            exact = self._exact_iface_opts(env, iface, depth - 1)
            recv = self._emit(env, iface, depth - 1, rng.choice(exact))
            args = tuple(self.gen_expr(env, t, depth - 1) for _x, t in spec.sig.params)
            return fg.Call(recv, spec.name, args)
        if op == "select":
            _o, s, f = choice
            return fg.Select(self.gen_expr(env, s, depth - 1), f)
        if op == "assert":
            _o, via, target = choice
            exact = self._exact_iface_opts(env, via, depth - 1)
            subject = self._emit(env, via, depth - 1, rng.choice(exact))
            return fg.Assert(subject, target)
        # minimal fallback
        return minimal_value(self.table, want, rng)


def minimal_value(decls: fg.Decls, t: str, rng=None):
    """Smallest closed value expression of a type; deterministic when rng is
    None (0 / false for primitives).  Built bottom-up (see `rebuild`) over
    (type, the types on the way to it); ValueError if the way meets a type
    again."""
    def children(node):
        t, seen = node
        kind = decls.kind(t)
        if kind == "prim":
            return None
        if t in seen:
            raise ValueError(f"cannot build a finite value of {t}")
        seen |= {t}
        if kind == "interface":
            impls = decls.implementers[t]
            if not impls:
                raise ValueError(f"no struct implements {t}")
            return ((impls[0], seen),)
        return tuple((ft, seen) for _f, ft in decls.struct_fields(t))

    def build(node, subs):
        t = node[0]
        if subs is None:
            if t == fg.INT:
                return fg.IntLit(rng.randint(0, 9) if rng else 0)
            return fg.BoolLit(bool(rng and rng.random() < 0.5))
        if decls.kind(t) == "interface":
            return subs[0]
        return fg.StructLit(t, tuple(subs))

    return rebuild((t, frozenset()), children, build)


def gen_program(cfg: GenConfig) -> fg.Program:
    """Generate one program; always well-formed and type-correct."""
    return _Gen(cfg).run()


# ---------------------------------------------------------------------------
# Shrinking


def _subexprs(e):
    """The subexpressions of `e` in the order the shrinker tries them: a
    call's arguments before its receiver."""
    subs = list(fg.children(e))
    if type(e) is fg.Call:
        subs.append(subs.pop(0))
    return subs


def _relies(table, node):
    """What a declaration, or the expression `main`, relies on: the type
    names it names (field, signature and receiver types, struct literals and
    asserted types) and the (struct, method) pairs its code relies on
    (`Translator.uses`)."""
    if isinstance(node, fg.TypeDecl):
        if isinstance(node.literal, fg.StructType):
            return {t for _f, t in node.literal.fields}
        return {t for s in node.literal.specs for t in s.sig.param_types + (s.sig.ret,)}
    tr = Translator(table)
    if isinstance(node, fg.MethodDecl):
        tr.check_expr(method_env(node), node.body, node.sig.ret)
        tr.uses.update(node.sig.param_types, (node.recv_type, node.sig.ret))
        node = node.body
    else:
        tr.infer_expr({}, node)
    return tr.uses | {e.type_name for e in fg.expr_nodes(node)
                      if isinstance(e, (fg.StructLit, fg.Assert))}


def _candidates(prog: fg.Program, relies):
    """Each one-step reduction of the well-typed `prog`, in greedy order,
    with whether it is well-typed and the index of the node it changed
    (`main` is the last).  `relies` holds `_relies` of each declaration of
    `prog`, then of `main`.  FG expressions bind nothing, so the typing of
    `prog` decides every candidate without checking it:

    - removing a declaration is well-typed iff no other node relies on it
      (`_relies`): names the type, or relies on the method (T, m);
    - a subexpression of `main` is always well-typed;
    - a method body may become one of its subexpressions iff that one's type
      is a subtype of the return type, the test `coerce_to` applies, or the
      minimal value of the return type, which always fits.
    """
    table = prog.table

    for i, d in enumerate(prog.decls):
        key = d.name if isinstance(d, fg.TypeDecl) else (d.recv_type, d.name)
        ok = not any(key in r for j, r in enumerate(relies) if j != i)
        yield fg.Program(prog.decls[:i] + prog.decls[i + 1:], prog.main, prog.mode), ok, i
    for sub in _subexprs(prog.main):
        yield fg.Program(prog.decls, sub, prog.mode), True, len(prog.decls)
    for i, d in enumerate(prog.decls):
        if isinstance(d, fg.MethodDecl):
            try:
                small = minimal_value(table, d.sig.ret)
            except ValueError:
                small = None
            env = method_env(d)
            tr = Translator(table)
            bodies = _subexprs(d.body)
            if small is not None and small != d.body:
                bodies.append(small)
            for b in bodies:
                d2 = replace(d, body=b)
                ok = b is small or fg.is_subtype(table, tr.infer_expr(env, b)[0], d.sig.ret)
                yield fg.Program(prog.decls[:i] + (d2,) + prog.decls[i + 1:],
                                 prog.main, prog.mode), ok, i


@dataclass(frozen=True)
class _Checked(fg.Program):
    """A shrink candidate with its translation, which `relate.diff_run`
    uses instead of translating the program again."""

    translation: Translation = field(default=None, compare=False, repr=False)


def _translated(prog: fg.Program, res: Translation, cand: fg.Program, i: int):
    """`cand`, cut from `prog` by changing node `i` (`main` is the last),
    with its translation built from `res`, the translation of `prog`.  A
    new `main` or body changes no signature, field or spec, so it is typed
    against the table of `prog` and every other binding is kept.  A removal
    can change an interface's implementers, and with them a downcast's code
    anywhere, so a removal candidate is checked and translated in full.
    Raises FgError if `cand` is ill-typed."""
    if len(cand.decls) < len(prog.decls):
        return _Checked(cand.decls, cand.main, cand.mode, require_translation(cand))
    tl_prog, main_type = res.tl_program, res.main_type
    if i == len(prog.decls):
        main_type, code = Translator(prog.table).infer_expr({}, cand.main)
        tl_prog = replace(tl_prog, main=code)
    else:
        name, lam = Translator(prog.table).translate_method(cand.decls[i])
        tl_prog = replace(tl_prog, bindings=tuple(
            (n, lam if n == name else old) for n, old in tl_prog.bindings))
    return _Checked(cand.decls, cand.main, cand.mode, Translation(tl_prog, main_type, []))


def shrink(prog: fg.Program, failing) -> fg.Program:
    """Greedy fixpoint minimization preserving well-typedness and the
    failure predicate.  The input must be well-formed and well-typed, or
    FgError carries its diagnostics.  Only well-typed candidates, decided
    from the typing of the current program, reach `failing`; a candidate on
    which `failing` raises FgError is skipped, and any other exception
    propagates.  Reliance sets are computed once per input: a step removes
    a declaration no other node relies on, or replaces a body or `main`
    without changing a signature, so only the changed node's set changes.
    For the same reason each candidate carries a translation built from the
    current program's (`_translated`), which `relate.diff_run` uses; only a
    removal is checked and translated in full.  The result is a plain
    `fg.Program`."""
    res = translate_program(prog)
    if not res.ok:
        raise FgError(res.diagnostics)
    relies = [_relies(prog.table, n) for n in prog.decls + (prog.main,)]
    while True:
        for cand, ok, i in _candidates(prog, relies):
            if not ok:
                continue
            try:
                cand = _translated(prog, res, cand, i)
                if failing(cand):
                    break
            except FgError:
                continue
        else:
            return fg.Program(prog.decls, prog.main, prog.mode)
        if len(cand.decls) < len(prog.decls):
            del relies[i]
        else:
            relies[i] = _relies(cand.table, (cand.decls + (cand.main,))[i])
        prog, res = cand, cand.translation
