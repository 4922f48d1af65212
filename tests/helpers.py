"""Functions only the tests use: looking up a method declaration, the
standalone translation of one method and its comparison with a program's
method substitution, the pairs the relation is checked on and a TL value
changed at its deepest leaf, the programs the reference comparisons run
over, every one-step reduction the shrinker may try, and the
implementations of the value relation, the FG printer and the token
offsets that the faster or shorter ones replaced, kept as references.

Tests import this module as `helpers`: pytest puts `tests/` on the path,
and `tests/test_peano.py` adds it to its child interpreter's."""

import glob
import json
import re
from itertools import accumulate
from pathlib import Path

from fgdict import fg_ast as fg, tl_ast as tl
from fgdict.diagnostics import PREC, PREC_CMP, push_items
from fgdict.fg_parser import _PREC_POSTFIX, parse_program
from fgdict.gen import GenConfig, gen_program, minimal_value
from fgdict.relate import _dict_slots
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
    related root pair, for the exactness/preservation suites."""
    out = []
    todo = [(t, v, V)]
    while todo:
        t, v, V = todo.pop()
        out.append((t, v, V))
        kind = decls.kind(t)
        if kind == "struct" and isinstance(V, tl.CtorApp):
            todo.extend(reversed([(ft, va, Va) for (_f, ft), va, Va
                                  in zip(decls.fields[t], v.args, V.args)]))
        elif kind == "interface" and isinstance(V, tl.CtorApp) and V.args:
            payload = V.args[0]
            u_s = isinstance(payload, tl.CtorApp) and tl.ctor_type(payload.ctor)
            if u_s:
                todo.append((u_s, v, payload))
    return out


def deepest_leaf_changed(V):
    """`V` with its deepest leaf changed, the leftmost of the deepest: a
    nullary constructor or a method variable renamed, an integer plus one, a
    boolean negated.  The path to it is found breadth-first and rebuilt from
    the leaf up, so values of any depth are changed without recursion."""
    nodes = [(V, -1, -1, 0)]  # (value, parent's index, position in it, depth)
    leaf = None
    for i, (W, _parent, _pos, depth) in enumerate(nodes):
        if type(W) is tl.CtorApp and W.args:
            nodes.extend((arg, i, pos, depth + 1) for pos, arg in enumerate(W.args))
        elif leaf is None or depth > nodes[leaf][3]:
            leaf = i
    W, parent, pos, _depth = nodes[leaf]
    if type(W) is tl.CtorApp:
        W = tl.CtorApp(W.ctor + "x", ())
    elif type(W) is tl.MethodVar:
        W = tl.MethodVar(W.name + "x")
    elif type(W) is tl.TLInt:
        W = tl.TLInt(W.value + 1)
    elif type(W) is tl.TLBool:
        W = tl.TLBool(not W.value)
    else:
        raise TypeError(f"not a TL value leaf: {W!r}")
    while parent >= 0:
        P, up, up_pos, _depth = nodes[parent]
        W = tl.CtorApp(P.ctor, P.args[:pos] + (W,) + P.args[pos + 1:])
        parent, pos = up, up_pos
    return W


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


def _shrink_subexprs(e):
    """The subexpressions of `e` in the order the shrinker tries them: a
    call's arguments, then its receiver; every other node's in source
    order."""
    t = type(e)
    if t is fg.Call:
        return [*e.args, e.recv]
    if t is fg.StructLit:
        return list(e.args)
    if t is fg.Select:
        return [e.recv]
    if t is fg.Assert:
        return [e.expr]
    if t is fg.BinOp:
        return [e.left, e.right]
    return []


def one_step_reductions(prog: fg.Program):
    """Every one-step reduction of `prog`, well-typed or not, as a plain
    `fg.Program`, in the shrinker's greedy order: each declaration removed;
    `main` replaced by each of its subexpressions; then each method body
    replaced by each of its subexpressions, and then by the minimal value of
    its return type when that exists and differs from the body."""
    decls, main, mode = prog.decls, prog.main, prog.mode
    for i in range(len(decls)):
        yield fg.Program(decls[:i] + decls[i + 1:], main, mode)
    for sub in _shrink_subexprs(main):
        yield fg.Program(decls, sub, mode)
    for i, d in enumerate(decls):
        if not isinstance(d, fg.MethodDecl):
            continue
        bodies = _shrink_subexprs(d.body)
        try:
            small = minimal_value(prog.table, d.sig.ret)
        except ValueError:
            small = None
        if small is not None and small != d.body:
            bodies.append(small)
        for b in bodies:
            d2 = fg.MethodDecl(d.recv_var, d.recv_type, d.name, d.sig, b, d.span)
            yield fg.Program(decls[:i] + (d2,) + decls[i + 1:], main, mode)


def reference_values_related(decls: fg.Decls, mu, t: str, v, V) -> bool:
    """The value relation as it was before it read each type's facts once
    per call: every level looks up its type's kind, constructor and fields."""
    slots = {}  # (interface, payload constructor) -> _dict_slots
    todo = [(t, v, V)]
    while todo:
        t, v, V = todo.pop()
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
            fields = decls.fields[t]
            if len(V.args) != len(fields) or len(v.args) != len(fields):
                return False
            todo.extend((fields[i][1], v.args[i], V.args[i])
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
            todo.append((want[0], v, payload))
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


def reference_where(reader_class, text, filename="<input>"):
    """The (file, start, end, line, column) of each token, EOF included, of
    `text` read by `reader_class`, as `TokenReader.where` worked them out
    before it read the ends of its LEX matches: a copy of LEX that does not
    capture the token (which `lexicon` made as CHUNKS), whose match lengths
    add up to the end of each token."""
    lex = reader_class.LEX.pattern
    head = lex.index(r"\s*)*(") + len(r"\s*)*(")
    chunks = re.compile(lex[:head] + "?:" + lex[head:], re.DOTALL)
    assert chunks.groups == 0
    out = []
    for tok, end in zip(reader_class.LEX.findall(text),
                        accumulate(map(len, chunks.findall(text))), strict=True):
        start = end - len(tok)
        line_start = text.rfind("\n", 0, start) + 1
        out.append((filename, start, end, text.count("\n", 0, start) + 1, start - line_start + 1))
        if not tok:  # EOF; trailing whitespace gives a second, empty match
            return out
