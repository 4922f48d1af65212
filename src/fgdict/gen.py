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
from dataclasses import dataclass, replace

from . import fg_ast as fg
from .diagnostics import FgError
from .translate import translate_program


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_structs: int = 4
    max_ifaces: int = 3
    max_methods_per_iface: int = 2
    max_fields: int = 3
    expr_depth: int = 4
    assert_probability: float = 0.3
    mode: str = fg.CORE
    allow_unimplemented: bool = False

    def __post_init__(self):
        if min(self.max_structs, self.max_ifaces + 1, self.max_methods_per_iface,
               self.max_fields + 1, self.expr_depth + 1) < 1:
            raise ValueError("generator bounds must be >= 1")
        if not 0.0 <= self.assert_probability <= 1.0:
            raise ValueError("assert_probability must be within [0, 1]")


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
        self.unimpl = {I for I in self.ifaces
                       if cfg.allow_unimplemented and rng.random() < 0.3}

        self._gen_templates()
        self._gen_iface_defs()
        self._gen_fields()
        self._build_table()
        decls = self._declarations()
        # Main may call anything: the call graph is stratified by template
        # index, so evaluation always terminates.
        self.call_ceiling = len(self.templates)
        main = self.gen_expr(
            {}, rng.choice(self.structs + self._inhabited_ifaces()), cfg.expr_depth)
        return fg.Program(tuple(decls), main, cfg.mode)

    # -- declaration skeleton ---------------------------------------------

    def _sig_types(self):
        usable = [I for I in self.ifaces if I not in self.unimpl]
        return self.structs + usable + list(self.prims)

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
                pool = [I for I in self.ifaces if I not in self.unimpl] * 3 \
                    + self._sig_types()
                params.append((f"p{j}", rng.choice(pool)))
            ret = rng.choice(self._sig_types())
            self.templates.append(fg.MethodSpec(f"m{i}", fg.MethodSig(tuple(params), ret)))
        self.template_index = {t.name: i for i, t in enumerate(self.templates)}
        self.call_ceiling = len(self.templates)
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
        owners = [s for s in self.structs if self.impls[s]]
        for name in self.ifaces:
            if name in self.unimpl or not owners:
                # Deliberately unimplementable: a spec matching no template.
                specs = (fg.MethodSpec("never", fg.MethodSig((), rng.choice(self.structs))),)
            else:
                owned = self.impls[rng.choice(owners)]
                k = rng.randint(1, min(len(owned), self.cfg.max_methods_per_iface))
                specs = tuple(self.templates[i] for i in sorted(rng.sample(owned, k)))
            self.iface_defs[name] = fg.InterfaceType(specs)

    def _gen_fields(self):
        rng = self.rng
        self.fields = {}
        for i, s in enumerate(self.structs):
            allowed = list(self.structs[:i]) + list(self.prims)
            allowed += [I for I in self.ifaces if self._first_impl(I, limit=i) is not None]
            n = rng.randint(0, self.cfg.max_fields) if allowed else 0
            self.fields[s] = tuple((f"f{j}", rng.choice(allowed)) for j in range(n))

    def _first_impl(self, iface, limit=None):
        """Lowest-index struct implementing iface, considering only structs
        below `limit` when given."""
        specs = {sp.key() for sp in self.iface_defs[iface].specs}
        names = self.structs if limit is None else self.structs[:limit]
        for i, s in enumerate(names):
            have = {self.templates[t].key() for t in self.impls[s]}
            if specs <= have:
                return s
        return None

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

    def _inhabited_ifaces(self):
        return [I for I in self.ifaces if self._first_impl(I) is not None]

    def _declarations(self):
        """The table's declarations, with a generated body for each method."""
        decls = []
        for d in self.table.decls:
            if isinstance(d, fg.MethodDecl):
                env = {d.recv_var: d.recv_type}
                env.update(d.sig.params)
                # Bodies may only call strictly earlier templates, which keeps
                # the call graph acyclic and evaluation terminating.
                self.call_ceiling = self.template_index[d.name]
                d = replace(d, body=self.gen_expr(env, d.sig.ret, self.cfg.expr_depth))
            decls.append(d)
        return decls

    # -- expressions -------------------------------------------------------

    def _subtype(self, t, u):
        return fg.is_subtype(self.table, t, u)

    def _implementers(self, iface):
        return [s for s in self.structs if self._subtype(s, iface)]

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
            impls = self._implementers(want)
            if impls and depth > 0:
                opts.append(("literal", rng.choice(impls)))
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
            if rng.random() < self.cfg.assert_probability:
                if kind == "struct":
                    sources = [I for I in self.ifaces
                               if self._subtype(want, I) and
                               self._exact_iface_opts(env, I, depth - 1)]
                elif kind == "interface":
                    sources = [I for I in self.ifaces
                               if I != want and self._implementers(I) and
                               self._exact_iface_opts(env, I, depth - 1)]
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
                o = rng.choice(["==", "<", "&&", "||"])
                operand = fg.INT if o in ("==", "<") else fg.BOOL
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


def minimal_value(decls: fg.Decls, t: str, rng=None, _seen=frozenset()):
    """Smallest closed value expression of a type; deterministic when rng is
    None (0 / false for primitives)."""
    kind = decls.kind(t)
    if kind == "prim":
        if t == fg.INT:
            return fg.IntLit(rng.randint(0, 9) if rng else 0)
        return fg.BoolLit(bool(rng and rng.random() < 0.5))
    if t in _seen:
        raise ValueError(f"cannot build a finite value of {t}")
    if kind == "interface":
        for s in decls.struct_names:
            if fg.is_subtype(decls, s, t):
                return minimal_value(decls, s, rng, _seen | {t})
        raise ValueError(f"no struct implements {t}")
    args = tuple(minimal_value(decls, ft, rng, _seen | {t})
                 for _f, ft in decls.struct_fields(t))
    return fg.StructLit(t, args)


def gen_program(cfg: GenConfig) -> fg.Program:
    """Generate one program; always well-formed and type-correct."""
    return _Gen(cfg).run()


# ---------------------------------------------------------------------------
# Shrinking


def _subexprs(e):
    out = []
    for kids in (getattr(e, "args", ()),):
        out.extend(kids)
    for attr in ("recv", "expr", "left", "right"):
        if hasattr(e, attr):
            out.append(getattr(e, attr))
    return out


def _candidates(prog: fg.Program):
    for i in range(len(prog.decls)):
        yield fg.Program(prog.decls[:i] + prog.decls[i + 1:], prog.main, prog.mode)
    for sub in _subexprs(prog.main):
        yield fg.Program(prog.decls, sub, prog.mode)
    for i, d in enumerate(prog.decls):
        if isinstance(d, fg.MethodDecl):
            try:
                small = minimal_value(prog.table, d.sig.ret)
            except ValueError:
                small = None
            bodies = [b for b in _subexprs(d.body)]
            if small is not None and small != d.body:
                bodies.append(small)
            for b in bodies:
                d2 = replace(d, body=b)
                yield fg.Program(prog.decls[:i] + (d2,) + prog.decls[i + 1:],
                                 prog.main, prog.mode)


def shrink(prog: fg.Program, failing) -> fg.Program:
    """Greedy fixpoint minimization preserving well-typedness and the
    failure predicate.  A candidate whose check or predicate reports
    diagnostics (FgError) is skipped; any other exception propagates."""
    while True:
        for cand in _candidates(prog):
            try:
                if translate_program(cand).ok and failing(cand):
                    prog = cand
                    break
            except FgError:
                continue
        else:
            return prog
