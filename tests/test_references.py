"""The value relation and the FG printer against the implementations they
replaced (`helpers.reference_values_related`, `helpers.reference_print_expr`),
on the corpus, the ladder and seeds 0-299 of the generator in both modes."""

import pytest

from fgdict import fg_ast as fg, fg_interp, tl_ast as tl, tl_interp
from fgdict.fg_parser import parse_expr, print_expr
from fgdict.relate import DEFAULT_EVAL_FUEL, DEFAULT_RELATION_FUEL, values_related
from fgdict.translate import require_translation
from helpers import harvest_related, reference_print_expr, reference_values_related, \
    sample_programs

KS = (0, 1, 2, DEFAULT_RELATION_FUEL)


@pytest.fixture(scope="module")
def runs():
    """(program, declarations, method substitution, main type, FG outcome,
    TL outcome) for every sample program."""
    out = []
    for prog in sample_programs():
        res = require_translation(prog)
        mu = res.tl_program.method_subst()
        out.append((prog, prog.table, mu, res.main_type,
                    fg_interp.fg_eval(prog.table, prog.main, DEFAULT_EVAL_FUEL),
                    tl_interp.tl_eval(mu, res.tl_program.main, DEFAULT_EVAL_FUEL)))
    return out


def _related_triples(runs):
    """(declarations, method substitution, type, FG value, TL value) for
    every pair below the root of each run that ends in two values."""
    for _prog, decls, mu, main_type, fg_out, tl_out in runs:
        if type(fg_out) is fg_interp.Value and type(tl_out) is tl_interp.Value:
            for t, v, V in harvest_related(decls, main_type, fg_out.value, tl_out.value):
                yield decls, mu, t, v, V


def _mismatches(V):
    """TL values one edit away from `V` at its root: its constructor
    renamed, its last argument dropped, an interface value's dictionary
    slots reversed, a primitive changed."""
    if type(V) is tl.CtorApp:
        yield tl.CtorApp(V.ctor + "x", V.args)
        if V.args:
            yield tl.CtorApp(V.ctor, V.args[:-1])
        slots = V.args[1:]
        if len(slots) > 1 and all(type(s) is tl.MethodVar for s in slots) \
                and slots[::-1] != slots:
            yield tl.CtorApp(V.ctor, (V.args[0], *slots[::-1]))
    elif type(V) is tl.TLInt:
        yield tl.TLInt(V.value + 1)
    elif type(V) is tl.TLBool:
        yield tl.TLBool(not V.value)


def test_relation_is_its_reference_on_related_pairs(runs):
    roots = pairs = 0
    for _prog, decls, mu, main_type, fg_out, tl_out in runs:
        if type(fg_out) is fg_interp.Value:
            roots += 1
            assert values_related(decls, mu, main_type, fg_out.value, tl_out.value,
                                  DEFAULT_RELATION_FUEL)
    for decls, mu, t, v, V in _related_triples(runs):
        pairs += 1
        for k in KS:
            assert values_related(decls, mu, t, v, V, k) == \
                reference_values_related(decls, mu, t, v, V, k), (t, k)
    assert roots > 300 and pairs > roots


def test_relation_is_its_reference_on_mismatched_pairs(runs):
    """Each one-edit mismatch stays unrelated above index 0, and relates at
    index 0, as the reference says."""
    edits = 0
    for decls, mu, t, v, V in _related_triples(runs):
        for W in _mismatches(V):
            edits += 1
            for k in KS:
                got = values_related(decls, mu, t, v, W, k)
                assert got == reference_values_related(decls, mu, t, v, W, k)
                assert got is (k == 0), (t, k, W)
    assert edits > 1000


class _KindsAsked:
    """A declaration table that records each type whose kind is asked."""

    def __init__(self, decls):
        self.decls = decls
        self.asked = []

    def __getattr__(self, name):
        return getattr(self.decls, name)

    def kind(self, t):
        self.asked.append(t)
        return self.decls.kind(t)


def test_relation_meets_types_in_the_reference_order(runs):
    """The pairs are related in pre-order: the types meet first, in the
    order they are first met, are those of the reference, which asks at
    every level (an ill-formed table raises at the first undeclared type)."""
    for _prog, decls, mu, main_type, fg_out, tl_out in runs:
        if type(fg_out) is not fg_interp.Value:
            continue
        firsts = []
        for relation in (values_related, reference_values_related):
            spy = _KindsAsked(decls)
            relation(spy, mu, main_type, fg_out.value, tl_out.value, DEFAULT_RELATION_FUEL)
            firsts.append(list(dict.fromkeys(spy.asked)))
        assert firsts[0] == firsts[1]


PRECEDENCE = [
    "A{1 == 2}.f", "A{x || y && z}.m(A{a < b})", "(x == y) == z", "x == (y == z)",
    "(x || y) && z", "x || y && z", "A{(x || y) && z}.f", "A{x}.m(1 < 2, A{3 == 4}.g)",
    "A{A{1 == 2}}.f", "(A{x == y}.f || z) && w", "A{}.(B).m()", "A{x, y == z}.(I)",
    "(a < b) == (c < d)", "A{true || false}.f.g(A{1 < 2}).(B)",
]


@pytest.mark.parametrize("text", PRECEDENCE)
def test_printer_is_its_reference_on_precedence(text):
    e = parse_expr(text, mode=fg.EXT)
    assert print_expr(e) == reference_print_expr(e)
    assert print_expr(parse_expr(print_expr(e), mode=fg.EXT)) == print_expr(e)


def test_printer_is_its_reference_on_programs_and_values(runs):
    for prog, _decls, _mu, _t, fg_out, _tl_out in runs:
        exprs = [d.body for d in prog.decls if isinstance(d, fg.MethodDecl)] + [prog.main]
        if type(fg_out) is fg_interp.Value:
            exprs.append(fg_out.value)
        for e in exprs:
            assert print_expr(e) == reference_print_expr(e)
