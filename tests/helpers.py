"""Functions only the tests use: looking up a method declaration, the
standalone translation of one method and its comparison with a program's
method substitution, the samples and check of the relation's
monotonicity, the programs the reference comparisons run over, and the
implementations of the value relation and the FG printer that the faster
ones replaced, kept as references.

Tests import this module as `helpers`: pytest puts `tests/` on the path,
and `tests/test_peano.py` adds it to its child interpreter's."""

import glob
import json
from pathlib import Path

from fgdict import fg_ast as fg, tl_ast as tl
from fgdict.diagnostics import PREC, PREC_CMP, push_items
from fgdict.fg_parser import _PREC_POSTFIX, parse_program
from fgdict.gen import GenConfig, gen_program
from fgdict.relate import DEFAULT_RELATION_FUEL, _dict_slots, values_related
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


def sample_programs(seeds=range(300)):
    """The corpus in its modes, the ladder rungs, then the default
    generator's programs for `seeds` in core and then extension mode."""
    manifest = json.loads(Path("corpus/manifest.json").read_text(encoding="utf-8"))
    programs = [parse_program(Path("corpus", e["path"]).read_text(encoding="utf-8"),
                              mode=e["mode"]) for e in manifest["files"]]
    programs += [parse_program(Path(path).read_text(encoding="utf-8"))
                 for path in sorted(glob.glob("bench/ladder/*.fg"))]
    return programs + [gen_program(GenConfig(seed=seed, mode=mode))
                       for mode in (fg.CORE, fg.EXT) for seed in seeds]


def reference_values_related(decls: fg.Decls, mu, t: str, v, V, k: int) -> bool:
    """The value relation as it was before it read each type's facts once
    per call: every level looks up its type's kind, constructor and fields."""
    slots = {}  # (interface, payload constructor) -> _dict_slots
    todo = [(t, v, V, k)]
    while todo:
        t, v, V, k = todo.pop()
        if k <= 0:
            continue
        kind = decls.kind(t)
        if kind == "prim":
            lit, tl_lit = (fg.IntLit, tl.TLInt) if t == fg.INT else (fg.BoolLit, tl.TLBool)
            if not (isinstance(v, lit) and isinstance(V, tl_lit) and v.value == V.value):
                return False
        elif kind == "struct":
            if not (isinstance(v, fg.StructLit) and v.type_name == t):
                return False
            if not (isinstance(V, tl.CtorApp) and V.ctor == tl.struct_ctor(t)):
                return False
            fields = decls.struct_fields(t)
            if len(V.args) != len(fields) or len(v.args) != len(fields):
                return False
            todo.extend((fields[i][1], v.args[i], V.args[i], k)
                        for i in range(len(fields) - 1, -1, -1))
        else:  # interface type
            if not (isinstance(V, tl.CtorApp) and V.ctor == tl.struct_ctor(t)
                    and V.args and isinstance(V.args[0], tl.CtorApp)):
                return False
            payload = V.args[0]
            key = t, payload.ctor
            if key not in slots:
                slots[key] = _dict_slots(decls, mu, t, payload.ctor)
            want = slots[key]
            if want is None or V.args[1:] != want[1]:
                return False
            todo.append((want[0], v, payload, k - 1))
    return True


def reference_print_expr(e):
    """The FG printer as it was before it dispatched by node type: an
    `isinstance` chain, with every literal's arguments put through
    `push_items`."""
    out = []
    stack = [(e, 0)]
    push = stack.append
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        e, prec = item
        if isinstance(e, fg.Var):
            out.append(e.name)
        elif isinstance(e, fg.StructLit):
            out.append(f"{e.type_name}{{")
            push("}")
            push_items(push, e.args, 0, ", ")
        elif isinstance(e, fg.Call):
            push(")")
            push_items(push, e.args, 0, ", ")
            push(f".{e.method}(")
            push((e.recv, _PREC_POSTFIX))
        elif isinstance(e, fg.Select):
            push(f".{e.fld}")
            push((e.recv, _PREC_POSTFIX))
        elif isinstance(e, fg.Assert):
            push(f".({e.type_name})")
            push((e.expr, _PREC_POSTFIX))
        elif isinstance(e, fg.BinOp):
            mine = PREC[e.op]
            if mine < prec:
                out.append("(")
                push(")")
            push((e.right, mine + 1))
            push(f" {e.op} ")
            push((e.left, mine + 1 if mine == PREC_CMP else mine))
        elif isinstance(e, fg.IntLit):
            out.append(str(e.value))
        elif isinstance(e, fg.BoolLit):
            out.append("true" if e.value else "false")
        else:
            raise TypeError(f"not an FG expression: {e!r}")
    return "".join(out)
