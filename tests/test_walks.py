"""`tl_ast.validate_program` and `fg_ast.check_wellformed` read each node's
subterms by its type.  Here they are compared with reference walks written
over `children`, as both were before: the same problems and diagnostics,
in the same order, on every translation of the corpus, the ladder and
generated programs, and on programs made to fail each check."""

import glob
import itertools
import json

from fgdict import fg_ast as fg, tl_ast as tl
from fgdict.diagnostics import EXT_NODE_IN_CORE, UNKNOWN_TYPE, Diagnostic, FgError, rebuild
from fgdict.fg_parser import parse_program, print_program
from fgdict.gen import GenConfig, gen_program
from fgdict.tl_ast import App, Case, Clause, CtorApp, Lam, MethodVar, Pattern, TLInt, TLVar
from fgdict.translate import translate_program

SEEDS = range(100)


# ---------------------------------------------------------------------------
# Reference walks


def reference_validate(prog):
    """`validate_program` over `tl.children` in pre-order, with binder
    markers around every body that binds."""
    problems = []
    arities = {}

    def see_ctor(name, arity, where):
        if not tl._is_ctor_name(name):
            problems.append(f"{where}: {name} is not a constructor name")
            return
        ta = tl.tuple_arity(name)
        if ta is not None and ta != arity:
            problems.append(f"{where}: tuple constructor {name} used with arity {arity}")
            return
        if name in arities and arities[name] != arity:
            problems.append(
                f"{where}: constructor {name} used with arity {arity} and {arities[name]}")
        arities.setdefault(name, arity)

    bound = prog.method_subst()
    for where, top in [("main", prog.main), *prog.bindings]:
        free, mvars = set(), set()
        scope = {}
        stack = [top]
        while stack:
            e = stack.pop()
            t = type(e)
            if t is tuple:
                for x in e[0]:
                    scope[x] = scope.get(x, 0) + e[1]
                continue
            if t is TLVar:
                if not scope.get(e.name):
                    free.add(e.name)
                continue
            if t is MethodVar:
                mvars.add(e.name)
                continue
            if t is CtorApp:
                see_ctor(e.ctor, len(e.args), where)
            elif t is Case:
                heads = [c.pat.ctor for c in e.clauses]
                if len(set(heads)) != len(heads):
                    problems.append(f"{where}: duplicate clause constructors {heads}")
                for c in e.clauses:
                    if len(set(c.pat.vars)) != len(c.pat.vars):
                        problems.append(f"{where}: non-linear pattern {c.pat}")
                    see_ctor(c.pat.ctor, len(c.pat.vars), where)
            for s, xs in reversed(tl.children(e)):
                if xs:
                    stack += [(xs, -1), s, (xs, 1)]
                else:
                    stack.append(s)
        problems.extend(f"{where}: free variable {x}" for x in sorted(free))
        problems.extend(f"{where}: unbound method variable {m}"
                        for m in sorted(mvars - bound.keys()))
    return problems


def reference_expr_diagnostics(prog):
    """The expression part of `check_wellformed`, over `fg.program_exprs`."""
    diags = []
    table = prog.table
    for e in fg.program_exprs(prog):
        if prog.mode == fg.CORE and isinstance(e, (fg.IntLit, fg.BoolLit, fg.BinOp)):
            diags.append(Diagnostic(
                EXT_NODE_IN_CORE, "int/bool extension used in core mode", e.span))
        if isinstance(e, fg.Assert) and not table.is_declared(e.type_name):
            diags.append(Diagnostic(UNKNOWN_TYPE, f"unknown asserted type {e.type_name}", e.span))
        if isinstance(e, fg.StructLit) and not table.is_declared(e.type_name):
            diags.append(Diagnostic(UNKNOWN_TYPE, f"unknown struct type {e.type_name}", e.span))
    return diags


def _is_expr_diagnostic(d):
    return d.code == EXT_NODE_IN_CORE or d.message.startswith(
        ("unknown asserted type ", "unknown struct type "))


def _key(diags):
    # Each node has a span object of its own, so the same node reports.
    return [(d.code, d.message, id(d.span)) for d in diags]


# ---------------------------------------------------------------------------
# FG inputs, each parsed, so that every node has its own span


def _fg_programs():
    with open("corpus/manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)["files"]
    for entry in manifest:
        with open("corpus/" + entry["path"], encoding="utf-8") as f:
            yield entry["mode"], f.read()
    for path in sorted(glob.glob("bench/ladder/*.fg")):
        with open(path, encoding="utf-8") as f:
            yield fg.CORE, f.read()
    for mode in (fg.CORE, fg.EXT):
        for seed in SEEDS:
            yield mode, print_program(gen_program(GenConfig(seed=seed, mode=mode)))


def _without_first(prog, kind):
    """`prog` without the declaration of its first struct or interface, so
    that its literals or assertions name an unknown type."""
    names = [d.name for d in prog.decls
             if isinstance(d, fg.TypeDecl) and isinstance(d.literal, kind)]
    if not names:
        return None
    return fg.Program(tuple(d for d in prog.decls
                            if not (isinstance(d, fg.TypeDecl) and d.name == names[0])),
                      prog.main, prog.mode)


def test_check_wellformed_reports_as_the_walk_over_children():
    kinds = set()
    for mode, text in _fg_programs():
        prog = parse_program(text, mode=mode)
        variants = [prog, _without_first(prog, fg.StructType),
                    _without_first(prog, fg.InterfaceType)]
        if mode == fg.EXT:  # its int and bool nodes, checked in core mode
            variants.append(fg.Program(prog.decls, prog.main, fg.CORE))
        for p in filter(None, variants):
            want = reference_expr_diagnostics(p)
            got = fg.check_wellformed(p)
            cut = len(got) - len(want)
            assert _key(got[cut:]) == _key(want)
            assert not any(map(_is_expr_diagnostic, got[:cut]))
            kinds.update((d.code, d.message.split(" ")[1]) for d in want)
    # Every kind of expression diagnostic was reported.
    assert kinds == {(EXT_NODE_IN_CORE, "extension"), (UNKNOWN_TYPE, "asserted"),
                     (UNKNOWN_TYPE, "struct")}


# ---------------------------------------------------------------------------
# TL inputs: translations, and mutants of them that still parse


def _edit_at(e, n, edit):
    """`e` with its `n`-th node in pre-order replaced by `edit(node)`."""
    count = itertools.count()
    hit = []

    def kids(node):
        if next(count) == n:
            hit.append(node)
            return None
        return [s for s, _xs in tl.children(node)]

    def build(node, subs):
        if subs:
            return tl.remake(node, subs)
        return edit(node) if hit and hit.pop() is node else node

    return rebuild(e, kids, build)


def _first_pattern(e, ctor, vars_):
    """The case `e` with its first clause's pattern made `ctor vars_`."""
    return Case(e.scrut, (Clause(Pattern(ctor, vars_), e.clauses[0].body),) + e.clauses[1:])


def _renamed(ctors):
    def edit(e):
        if type(e) is CtorApp and e.ctor.startswith("K_"):
            return CtorApp(ctors[(ctors.index(e.ctor) + 1) % len(ctors)], e.args)
        if type(e) is Case:
            pat = e.clauses[0].pat
            name = ctors[(ctors.index(pat.ctor) + 1) % len(ctors)] \
                if pat.ctor in ctors else ctors[0]
            return _first_pattern(e, name, pat.vars)
        return None
    return edit


def _wrong_arity(e):
    if type(e) is CtorApp and e.ctor.startswith("K_") and e.args:
        return CtorApp(e.ctor, e.args[:-1])
    if type(e) is Case and e.clauses[0].pat.ctor.startswith("K_"):
        pat = e.clauses[0].pat
        return _first_pattern(e, pat.ctor, pat.vars + ("_q",))
    return None


def _binder_dropped(e):
    if type(e) is Lam:
        return e.body
    if type(e) is Case and e.clauses[0].pat.vars:
        pat = e.clauses[0].pat
        return _first_pattern(e, pat.ctor, pat.vars[1:])
    return None


def _clause_duplicated(e):
    if type(e) is Case:
        return Case(e.scrut, e.clauses + e.clauses[:1])
    return None


def _preorder(e):
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack.extend(reversed([s for s, _xs in tl.children(e)]))


def _mutants(prog):
    """Programs that differ from `prog` at one node, for each kind of
    mutation and up to three nodes of each top-level term it applies to,
    that still parse."""
    tops = [prog.main] + [lam for _n, lam in prog.bindings]
    ctors = sorted({e.ctor for top in tops for e in _preorder(top)
                    if type(e) is CtorApp and e.ctor.startswith("K_")}) or ["K_A"]
    for edit in (_renamed(ctors), _wrong_arity, _binder_dropped, _clause_duplicated):
        for t, top in enumerate(tops):
            at = [n for n, e in enumerate(_preorder(top)) if edit(e) is not None]
            for n in sorted({*at[:1], *at[len(at) // 2:][:1], *at[-1:]}):
                new = _edit_at(top, n, edit)
                mutant = tl.TLProgram(
                    tuple((name, new if t == i + 1 else lam)
                          for i, (name, lam) in enumerate(prog.bindings)),
                    new if t == 0 else prog.main)
                try:
                    yield tl.parse_program(tl.print_program(mutant))
                except FgError:  # a mutant that no longer parses
                    continue


def _tl_programs():
    for mode, text in _fg_programs():
        prog = parse_program(text, mode=mode)
        for hoist in (False, True):
            yield tl.parse_program(tl.print_program(
                translate_program(prog, hoist_helpers=hoist).tl_program))
    # A lambda in a binding, and leaves under a constructor, whose free
    # variable is the one problem.
    yield tl.TLProgram((("f", Lam("x", TLVar("x"))),),
                       App(MethodVar("f"), CtorApp("K_A", (TLVar("y"), TLInt(1)))))


def test_validate_program_reports_as_the_walk_over_children():
    translations = mutants = failing = 0
    for prog in _tl_programs():
        translations += 1
        assert tl.validate_program(prog) == reference_validate(prog)
        if translations % 8:  # mutants of every eighth program only
            continue
        for mutant in _mutants(prog):
            mutants += 1
            want = reference_validate(mutant)
            assert tl.validate_program(mutant) == want
            failing += bool(want)
    assert failing > mutants // 2

