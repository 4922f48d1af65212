"""Functions only the tests use: looking up a method declaration, the
standalone translation of one method and its comparison with a program's
method substitution, and the samples and check of the relation's
monotonicity.

Tests import this module as `helpers`: pytest puts `tests/` on the path,
and `tests/test_peano.py` adds it to its child interpreter's."""

from fgdict import fg_ast as fg, tl_ast as tl
from fgdict.relate import DEFAULT_RELATION_FUEL, values_related
from fgdict.translate import Translator


def method_lookup(decls: fg.Decls, t_s: str, m: str):
    """The declaration of method m with receiver struct t_s, or None."""
    return decls.method_decls.get((t_s, m))


def translate_method(decls: fg.Decls, d: fg.MethodDecl):
    """Standalone, deterministic translation of one method declaration."""
    return Translator(decls).typed(d)[0]


def methods_related(decls: fg.Decls, prog: tl.TLProgram) -> bool:
    """Every FG method declaration must map, under the program's method
    substitution, to exactly the translation of that declaration."""
    mu = prog.method_subst()
    for d in decls.decls:
        if not isinstance(d, fg.MethodDecl):
            continue
        name, lam = translate_method(decls, d)
        if not _same_term(mu.get(name), lam):
            return False
    return True


def _same_term(a, b) -> bool:
    """`a == b` for TL terms, compared pairwise from an explicit stack
    (dataclass `==` recurses once per nesting level)."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b):
            return False
        if type(a) is tuple:
            if len(a) != len(b):
                return False
            todo.extend(zip(a, b))
        elif hasattr(a, "__dataclass_fields__"):
            todo.extend((getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
        elif a != b:
            return False
    return True


def harvest_related(decls: fg.Decls, t: str, v, V):
    """Collect, in pre-order, the (type, fg value, tl value) triples below a
    related root pair, for the monotonicity/preservation suites."""
    out = []
    todo = [(t, v, V)]
    while todo:
        t, v, V = todo.pop()
        out.append((t, v, V))
        kind = decls.kind(t)
        if kind == "struct" and isinstance(V, tl.CtorApp):
            todo.extend(reversed([(ft, va, Va) for (_f, ft), va, Va
                                  in zip(decls.struct_fields(t), v.args, V.args)]))
        elif kind == "interface" and isinstance(V, tl.CtorApp) and V.args:
            payload = V.args[0]
            u_s = isinstance(payload, tl.CtorApp) and tl.ctor_type(payload.ctor)
            if u_s:
                todo.append((u_s, v, payload))
    return out


def monotonicity_violations(decls, mu, samples, kmax=DEFAULT_RELATION_FUEL):
    """Check that relatedness at k implies relatedness at every k' <= k,
    exhaustively up to kmax.  Returns a list of violation descriptions."""
    violations = []
    for t, v, V in samples:
        flags = [values_related(decls, mu, t, v, V, k) for k in range(kmax + 1)]
        for k in range(kmax + 1):
            if flags[k] and not all(flags[:k]):
                violations.append((t, k, v, V))
                break
    return violations
