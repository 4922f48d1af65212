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
from .diagnostics import FgError, collector_paused, rebuild
from .translate import Translation, Translator, fold, method_env, translate_program

ASSERT_PROBABILITY = 0.3


@dataclass(frozen=True)  # not a `record`: __post_init__ validates the bounds
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

    def run(self) -> fg.Program:
        rng = self.rng
        cfg = self.cfg
        n_structs = rng.randint(1, cfg.max_structs)
        self.structs = [f"S{i}" for i in range(n_structs)]
        n_ifaces = rng.randint(min(1, cfg.max_ifaces), cfg.max_ifaces)
        self.ifaces = [f"I{i}" for i in range(n_ifaces)]
        self.prims = (fg.INT, fg.BOOL) if cfg.mode == fg.EXT else ()

        self._gen_templates()
        self._gen_iface_defs()
        self._gen_fields()
        self._build_table()
        decls = tuple(self._declarations())
        # Main may call anything: the call graph is stratified by template
        # index, so evaluation always terminates.
        self._start_body({}, len(self.templates))
        main = self.gen_expr(rng.choice(self.structs + self.ifaces), cfg.expr_depth)
        return _holding(fg.Program(decls, main, cfg.mode), self.table.with_bodies(decls))

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
        body generation types against, and the option tables read from it:
        the types that fit where each type is wanted (itself, and its
        subtypes if it is an interface), and every struct call
        (template index, struct, spec), interface call (template index,
        interface, spec) and field selection (struct, field, type)."""
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
        table = self.table = fg.Decls(decls, self.cfg.mode)
        types = self._sig_types()
        self.fits = {u: {t for t in types if fg.is_subtype(table, t, u)}
                     if u in self.iface_defs else {u} for u in types}
        self.struct_calls = [(ti, s, self.templates[ti])
                             for s in self.structs for ti in self.impls[s]]
        self.iface_calls = [(self.template_index[spec.name], I, spec)
                            for I in self.ifaces for spec in self.iface_defs[I].specs]
        self.selects = [(s, f, t) for s in self.structs for f, t in self.fields[s]]

    def _declarations(self):
        """The table's declarations, with a generated body for each method."""
        for d in self.table.decls:
            if isinstance(d, fg.MethodDecl):
                # Bodies may only call strictly earlier templates, which keeps
                # the call graph acyclic and evaluation terminating.
                self._start_body(method_env(d), self.template_index[d.name])
                d = fg.MethodDecl(d.recv_var, d.recv_type, d.name, d.sig,
                                  self.gen_expr(d.sig.ret, self.cfg.expr_depth))
            yield d

    # -- expressions -------------------------------------------------------

    def _start_body(self, env, call_ceiling):
        """Begin a method body or `main`, typed in `env` and calling only
        templates below `call_ceiling`; its option lists are built on first
        use."""
        self.env = env
        self.call_ceiling = call_ceiling
        self.options = {}  # (wanted type, min(depth, 2)) -> _options
        self.exact = {}  # (interface, depth > 0) -> _exact_iface_opts

    def gen_expr(self, want, depth):
        """Expression whose synthesized type is `want` for structs and
        primitives, or any subtype of `want` for interfaces."""
        rng = self.rng
        key = want, min(depth, 2)
        if key not in self.options:
            self.options[key] = self._options(want, depth)
        opts, rest = self.options[key]
        if depth > 0:
            if rest is not None:
                opts = opts + [("literal", rng.choice(self.table.implementers[want]))] + rest
            if rng.random() < ASSERT_PROBABILITY:
                sources = self._assert_sources(want, depth > 1)
                if sources:
                    opts = opts + [("assert", rng.choice(sources), want)] * 3
        choice = rng.choice(opts) if opts else ("minimal", want)
        return self._emit(want, depth, choice)

    def _options(self, want, depth):
        """The options of `gen_expr` for `want` at `depth` in this body,
        assertions aside.  An interface wanted at depth > 0 takes a literal
        of an implementer chosen at each node, between the two option lists;
        else the second is None."""
        env = self.env
        kind = self.table.kind(want)
        fits = self.fits[want]
        opts = []
        for x, t in env.items():
            if t in fits:
                opts += [("var", x)] * 2
        if kind == "struct":
            opts.append(("literal", want))
        elif kind == "prim":
            opts.append(("prim", want))
        rest = []
        if kind == "interface":
            for I in self.ifaces:
                if I != want and I in fits:
                    rest += [("var", x) for x, t in env.items() if t == I]
        if depth > 0:
            deep = depth > 1
            for ti, s, spec in self.struct_calls:
                if ti < self.call_ceiling and spec.sig.ret in fits:
                    rest += [("call-struct", s, spec)] * 2
            for ti, I, spec in self.iface_calls:
                if ti < self.call_ceiling and spec.sig.ret in fits and \
                        self._exact_iface_opts(I, deep):
                    rest += [("call-iface", I, spec)] * 6
            rest += [("select", s, f) for s, f, t in self.selects if t in fits]
            if kind == "interface":
                return opts, rest
            if kind == "prim":  # ext mode
                rest.append(("binop", want))
        return opts + rest, None

    def _assert_sources(self, want, deep):
        """The interfaces an assertion to `want` may start from: those it
        implements if it is a struct, every other one if it is an interface
        (none for a primitive), each only if an expression of exactly that
        type can be built, with depth left if `deep`.  It draws no random
        number, and `_exact_iface_opts` memoises the work in it."""
        iface = want in self.iface_defs
        return [I for I in self.ifaces
                if (I != want if iface else want in self.fits[I])
                and self._exact_iface_opts(I, deep)]

    def _exact_iface_opts(self, iface, deep):
        """Options that synthesize exactly `iface` — required for assertion
        subjects and interface-receiver calls (FG has no upcast syntax) —
        with depth left if `deep`."""
        key = iface, deep
        if key not in self.exact:
            env = self.env
            opts = self.exact[key] = [("var", x) for x, t in env.items() if t == iface]
            if deep:
                ceiling = self.call_ceiling
                opts += [("call-struct", s, spec) for ti, s, spec in self.struct_calls
                         if ti < ceiling and spec.sig.ret == iface]
                opts += [("call-iface", J, spec) for ti, J, spec in self.iface_calls
                         if ti < ceiling and spec.sig.ret == iface and J in env.values()]
                opts += [("select", s, f) for s, f, t in self.selects if t == iface]
        return self.exact[key]

    def _emit(self, want, depth, choice):
        rng = self.rng
        op = choice[0]
        if op == "var":
            return fg.Var(choice[1])
        if op == "literal":
            s = choice[1]
            return fg.StructLit(s, tuple(
                self.gen_expr(t, max(0, depth - 1)) for _f, t in self.fields[s]))
        if op == "prim":
            if want == fg.INT:
                return fg.IntLit(rng.randint(0, 9))
            return fg.BoolLit(rng.random() < 0.5)
        if op == "binop":
            if want == fg.BOOL:
                o = rng.choice(list(fg.BINOPS))
                operand = fg.BINOPS[o][0]
                return fg.BinOp(o, self.gen_expr(operand, depth - 1),
                                self.gen_expr(operand, depth - 1))
            return fg.IntLit(rng.randint(0, 9))
        if op == "call-struct":
            _o, s, spec = choice
            recv = self.gen_expr(s, depth - 1)
            args = tuple(self.gen_expr(t, depth - 1) for _x, t in spec.sig.params)
            return fg.Call(recv, spec.name, args)
        if op == "call-iface":
            _o, iface, spec = choice
            exact = self._exact_iface_opts(iface, depth > 1)
            recv = self._emit(iface, depth - 1, rng.choice(exact))
            args = tuple(self.gen_expr(t, depth - 1) for _x, t in spec.sig.params)
            return fg.Call(recv, spec.name, args)
        if op == "select":
            _o, s, f = choice
            return fg.Select(self.gen_expr(s, depth - 1), f)
        if op == "assert":
            _o, via, target = choice
            exact = self._exact_iface_opts(via, depth > 1)
            subject = self._emit(via, depth - 1, rng.choice(exact))
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


@collector_paused
def gen_program(cfg: GenConfig) -> fg.Program:
    """Generate one program; always well-formed and type-correct.  It holds
    the generator's declaration table as its own."""
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


def _candidates(prog: fg.Program, res: Translation):
    """Each well-typed one-step reduction of the well-typed `prog`, in
    greedy order; an ill-typed one is skipped before it is built.  `res` is
    the translation of `prog`.  FG expressions bind nothing, so the typing
    of `prog` decides every removal and new `main` without checking it:

    - removing a declaration is well-typed iff no other node relies on it
      (`Translation.relies`): names the type, or relies on the method (T, m);
    - a subexpression of `main` is always well-typed;
    - a method body may become one of its subexpressions iff that one's
      type is a subtype of the return type, which typing the new method
      decides, or the minimal value of the return type, which always fits.

    Each candidate is a `_Checked` carrying the fold of the typings of
    `prog` (`Translation.typed`) with one entry removed (`_removed`) or
    replaced: a new `main` or method, typed once against the table of `prog`.
    """
    table, typed, relies = prog.table, res.typed, res.relies
    typer = Translator(table)  # `typed` resets what one node's typing records

    for i, d in enumerate(prog.decls):
        key = d.name if isinstance(d, fg.TypeDecl) else (d.recv_type, d.name)
        if not any(key in r for j, r in enumerate(relies) if j != i):
            yield _removed(prog, res, i)
    for sub in _subexprs(prog.main):
        yield _carrier(prog.decls, sub, prog.mode, typed[:-1] + [typer.typed(sub)], table)
    for i, d in enumerate(prog.decls):
        if isinstance(d, fg.MethodDecl):
            try:
                small = minimal_value(table, d.sig.ret)
            except ValueError:
                small = None
            bodies = _subexprs(d.body)
            if small is not None and small != d.body:
                bodies.append(small)
            for b in bodies:
                d2 = replace(d, body=b)
                try:
                    node = typer.typed(d2)
                except FgError:
                    continue
                decls = prog.decls[:i] + (d2,) + prog.decls[i + 1:]
                yield _carrier(decls, prog.main, prog.mode, typed[:i] + [node] + typed[i + 1:],
                               table.with_bodies(decls))


@dataclass(frozen=True)
class _Checked(fg.Program):
    """A well-typed shrink candidate with its translation, which
    `_candidates` gives it and `relate.diff_run` uses instead of
    translating the program again.  That translation is folded from the
    typing of each node, so its `relies` are whole, but its `rule_counts`
    are empty: a shared helper's rule is counted once per program, at its
    first use, so counts summed over nodes would not be a program's."""

    translation: Translation = field(default=None, compare=False, repr=False)


def _holding(prog: fg.Program, table: fg.Decls):
    """`prog` with `table`, the `Decls` of its declarations, as its table."""
    vars(prog)["table"] = table  # the slot `cached_property` fills
    return prog


def _carrier(decls, main, mode, typed, table):
    """The candidate `decls` and `main`, carrying the fold of `typed`, the
    typing of each of its nodes, and holding `table`."""
    return _holding(_Checked(decls, main, mode, fold(typed)), table)


def _removed(prog: fg.Program, res: Translation, i: int):
    """`prog`, whose translation is `res`, without its declaration `i`, on
    which no other node relies.  That can change an interface's
    implementers, which only an interface-to-interface downcast reads: the
    methods and `main` that assert to such an interface are typed again
    against the new table, and every other node keeps its typing."""
    decls = prog.decls[:i] + prog.decls[i + 1:]
    table, old = fg.Decls(decls, prog.mode), prog.table.implementers
    changed = {u for u, ts in table.implementers.items() if ts != old[u]}

    def stale(node):
        e = node.body if isinstance(node, fg.MethodDecl) else node
        return changed and not isinstance(e, fg.TypeDecl) and any(
            type(x) is fg.Assert and x.type_name in changed for x in fg.expr_nodes(e))

    tr = Translator(table)
    kept = res.typed[:i] + res.typed[i + 1:]
    typed = [tr.typed(n) if stale(n) else t for n, t in zip(decls + (prog.main,), kept)]
    return _carrier(decls, prog.main, prog.mode, typed, table)


def shrink(prog: fg.Program, failing) -> fg.Program:
    """Greedy fixpoint minimization preserving well-typedness and the
    failure predicate.  The input must be well-formed and well-typed, or
    FgError carries its diagnostics.  `failing` sees every candidate
    `_candidates` builds, each well-typed by the typing of the current
    program; one on which it raises FgError is skipped, and any other
    exception propagates.  Each node is typed once (`Translator.typed`),
    which gives its code and its reliance set: the input's nodes once, by
    `translate_program`, and a step removes a declaration no other node
    relies on, or replaces a body or `main` without changing a signature,
    so only the changed node is typed anew, as a candidate, and not again
    once kept.  Each candidate carries the fold of its nodes' typings,
    which `relate.diff_run` uses and the next round starts from.  The
    result is a plain `fg.Program`."""
    res = translate_program(prog)
    if not res.ok:
        raise FgError(res.diagnostics)
    while True:
        for cand in _candidates(prog, res):
            try:
                if failing(cand):
                    break
            except FgError:
                continue
        else:
            return fg.Program(prog.decls, prog.main, prog.mode)
        prog, res = cand, cand.translation
