"""Declaration table, structural subtyping, and well-formedness checks."""

import time

import pytest

from fgdict import fg_ast as fg
from fgdict.diagnostics import (
    ASSERT_ON_STRUCT, DUP_TYPE, EXT_NODE_IN_CORE, FG1_RECURSIVE_STRUCT, FG2_DUP_FIELD,
    FG3_DUP_SPEC, FG4_DUP_METHOD, UNKNOWN_TYPE, FgError,
)
from fgdict.fg_parser import parse_program
from fgdict.gen import GenConfig, gen_program
from fgdict.translate import require_translation
from helpers import method_lookup

GOOD = """
package main
type A struct {}
type B struct { a A }
type I interface { m() A }
type J interface { m() A; n() A }
func (this A) m() A { return A{} }
func (this B) m() A { return this.a }
func (this B) n() A { return B{A{}}.a }
func main() { _ = B{A{}}.m() }
"""


@pytest.fixture
def good():
    return parse_program(GOOD)


def codes(prog):
    return [d.code for d in fg.check_wellformed(prog)]


def test_good_program_is_wellformed(good):
    assert fg.check_wellformed(good) == []


def test_methods_of_struct(good):
    decls = good.table
    names = [s.name for s in fg.methods(decls, "B")]
    assert names == ["m", "n"]
    assert [s.name for s in fg.methods(decls, "A")] == ["m"]


def test_methods_of_interface(good):
    decls = good.table
    assert [s.name for s in fg.methods(decls, "J")] == ["m", "n"]


def test_subtyping_is_reflexive(good):
    decls = good.table
    for t in ("A", "B", "I", "J"):
        assert fg.is_subtype(decls, t, t)


def test_struct_subtypes_interface_via_method_set(good):
    decls = good.table
    assert fg.is_subtype(decls, "A", "I")
    assert fg.is_subtype(decls, "B", "I")
    assert fg.is_subtype(decls, "B", "J")
    assert not fg.is_subtype(decls, "A", "J")


def test_interface_subtyping_by_spec_superset(good):
    decls = good.table
    assert fg.is_subtype(decls, "J", "I")
    assert not fg.is_subtype(decls, "I", "J")


def test_no_subtyping_between_distinct_structs(good):
    decls = good.table
    assert not fg.is_subtype(decls, "A", "B")
    assert not fg.is_subtype(decls, "I", "A")


def test_method_lookup(good):
    decls = good.table
    d = method_lookup(decls, "B", "n")
    assert d.recv_type == "B" and d.name == "n"
    assert method_lookup(decls, "A", "n") is None


def test_implementers_in_declaration_order():
    decls = parse_program("""
    package main
    type C struct {}
    type A struct {}
    type B struct {}
    type I interface { m() A }
    type K interface { q() A }
    func (this B) m() A { return A{} }
    func (this C) m() A { return A{} }
    func main() { _ = A{} }
    """).table
    assert decls.implementers == {"I": ["C", "B"], "K": []}


def test_field_index():
    decls = parse_program("""
    package main
    type A struct {}
    type B struct { x A; y A; z A }
    func main() { _ = A{} }
    """).table
    assert decls.field_index == {"A": {}, "B": {"x": 0, "y": 1, "z": 2}}


def test_subtyping_rejects_undeclared_names(good):
    for t, u in (("Nope", "I"), ("A", "Nope")):
        with pytest.raises(FgError) as err:
            fg.is_subtype(good.table, t, u)
        assert [d.code for d in err.value.diagnostics] == [UNKNOWN_TYPE]


# The benchmark's compile-workload programs, as in tests/test_gen.py.
COMPILE_PROGRAMS = [
    dict(seed=i, mode=(fg.CORE, fg.EXT)[i % 2], max_structs=16, max_ifaces=8,
         max_methods_per_iface=3, max_fields=3, expr_depth=4) for i in range(33)]


def _structural_subtype(prog, t, u):
    """t <: u read off the declarations of `prog`, which are well-formed,
    without its table."""
    literals = {d.name: d.literal for d in prog.decls if isinstance(d, fg.TypeDecl)}
    if t == u:
        return True
    if t not in literals or not isinstance(literals.get(u), fg.InterfaceType):
        return False
    if isinstance(literals[t], fg.InterfaceType):
        have = {s.key() for s in literals[t].specs}
    else:
        have = {d.spec().key() for d in prog.decls
                if isinstance(d, fg.MethodDecl) and d.recv_type == t}
    return {s.key() for s in literals[u].specs} <= have


def test_subtyping_answers_are_kept_per_table():
    """Each answer `is_subtype` keeps in the table is the structural one, on
    the table a generated program holds (asked first by the generator) and
    on one built afresh; an undeclared name raises on every call."""
    pairs = 0
    for cfg in COMPILE_PROGRAMS:
        prog = gen_program(GenConfig(**cfg))
        names = [d.name for d in prog.decls if isinstance(d, fg.TypeDecl)]
        names += list(fg.PRIMITIVES) if prog.mode == fg.EXT else []
        for table in (prog.table, fg.Decls(prog.decls, prog.mode)):
            for t in names:
                for u in names:
                    want = _structural_subtype(prog, t, u)
                    assert fg.is_subtype(table, t, u) == want, (cfg, t, u)
                    assert fg.is_subtype(table, t, u) == want, (cfg, t, u)
                    assert table.subtypes[t, u] == want
                    pairs += 1
            undeclared = [("Nope", names[0]), (names[0], "Nope")]
            if prog.mode == fg.CORE:
                undeclared += [(fg.INT, names[0]), (names[0], fg.BOOL)]
            for t, u in undeclared:
                for _ in range(2):
                    with pytest.raises(FgError) as err:
                        fg.is_subtype(table, t, u)
                    assert [d.code for d in err.value.diagnostics] == [UNKNOWN_TYPE]
                assert (t, u) not in table.subtypes
    assert pairs > 10000


def test_table_of_ill_formed_declarations_builds():
    prog = parse_program("""
    package main
    type A struct {}
    type A interface { m() A }
    type I interface { m() A }
    type J interface { m() A; n() A; m() I }
    func (this Z) m() A { return A{} }
    func (this A) m() A { return A{} }
    func main() { _ = A{} }
    """)
    # duplicate type A, method on undeclared receiver Z, duplicate spec m in J
    decls = prog.table
    assert decls.kind("A") == "struct"
    assert decls.fields == {"A": ()} and list(decls.specs) == ["I", "J"]
    assert decls.implementers == {"I": ["A"], "J": []}
    assert decls.slots == {"I": {"m": 0}, "J": {"m": 0, "n": 1}}  # the first m wins
    assert codes(prog)


def test_recursive_struct_rejected():
    prog = parse_program("""
    package main
    type A struct { b B }
    type B struct { a A }
    func main() { _ = A{B{A{}}} }
    """)
    assert FG1_RECURSIVE_STRUCT in codes(prog)


def test_self_recursive_struct_rejected():
    prog = parse_program("""
    package main
    type A struct { a A }
    func main() { _ = A{} }
    """)
    assert FG1_RECURSIVE_STRUCT in codes(prog)


@pytest.mark.parametrize("structs, cycles", [
    # B is the only recursive struct; A and C only reach it.
    ("type A struct { b B }\ntype B struct { b B }\ntype C struct { a A }", [("B", 3)]),
    ("type B struct { b B }\ntype A struct { b B }", [("B", 2)]),
    # One cycle through two structs, named in declaration order.
    ("type C struct { a A }\ntype B struct { a A }\ntype A struct { b B }",
     [("B, A", 3)]),
    # Two cycles, each reported once, at its first-declared member.
    ("type A struct { a A; c C }\ntype C struct { d D }\ntype D struct { c C }",
     [("A", 2), ("C, D", 3)]),
])
def test_one_diagnostic_per_struct_cycle(structs, cycles):
    prog = parse_program(f"package main\n{structs}\nfunc main() {{ _ = A{{}} }}\n")
    got = [(d.message, d.span.line) for d in fg.check_wellformed(prog)
           if d.code == FG1_RECURSIVE_STRUCT]
    assert got == [(f"recursive struct declaration involving {names}", line)
                   for names, line in cycles]


@pytest.mark.parametrize("ring", [False, True])
def test_struct_cycle_search_is_linear(ring):
    # A chain A0{a A1} ... A2999{} has 3,000 structs, each reaching all
    # later ones; closing it into a ring makes one cycle of all of them.
    n = 3000
    last = "a A0" if ring else ""
    structs = "\n".join(f"type A{i} struct {{ a A{i + 1} }}" for i in range(n - 1))
    prog = parse_program(f"package main\n{structs}\ntype A{n - 1} struct {{ {last} }}\n"
                         "func main() { _ = A0{} }\n")
    start = time.perf_counter()
    got = [d for d in fg.check_wellformed(prog) if d.code == FG1_RECURSIVE_STRUCT]
    assert time.perf_counter() - start < 1.0
    if ring:
        assert [(d.message, d.span.line) for d in got] == [
            ("recursive struct declaration involving "
             + ", ".join(f"A{i}" for i in range(n)), 2)]
    else:
        assert got == []


def test_interface_fields_do_not_make_structs_recursive():
    # A struct may hold an interface implemented by that same struct.
    prog = parse_program("""
    package main
    type P struct { x I; y I }
    type I interface { m() P }
    func (this P) m() P { return this }
    func main() { _ = P{P{}, P{}}.m() }
    """)
    # P{} has arity 2, so main is ill-typed, but well-formedness must pass;
    # check FG1 specifically.
    assert FG1_RECURSIVE_STRUCT not in codes(prog)


def test_duplicate_field_rejected():
    prog = parse_program("""
    package main
    type A struct {}
    type B struct { f A; f A }
    func main() { _ = A{} }
    """)
    assert codes(prog) == [FG2_DUP_FIELD]


def test_duplicate_interface_spec_rejected():
    prog = parse_program("""
    package main
    type A struct {}
    type I interface { m() A; m() A }
    func main() { _ = A{} }
    """)
    assert codes(prog) == [FG3_DUP_SPEC]


def test_duplicate_method_rejected():
    prog = parse_program("""
    package main
    type A struct {}
    func (this A) m() A { return A{} }
    func (this A) m() A { return this }
    func main() { _ = A{} }
    """)
    assert codes(prog) == [FG4_DUP_METHOD]


def test_a_repeated_declaration_object_is_a_duplicate():
    # Duplicates are found by position, so a program built by hand that
    # lists one declaration object twice gets both diagnostics.
    a = fg.TypeDecl("A", fg.StructType(()))
    m = fg.MethodDecl("this", "A", "m", fg.MethodSig((), "A"), fg.Var("this"))
    prog = fg.Program((a, a, m, m), fg.StructLit("A", ()))
    assert codes(prog) == [DUP_TYPE, FG4_DUP_METHOD]


def test_assert_to_struct_needs_interface_subject():
    prog = parse_program("""
    package main
    type A struct {}
    type B struct {}
    func main() { _ = A{}.(B) }
    """)
    assert fg.check_wellformed(prog) == []  # caught by the type checker
    from fgdict.translate import translate_program
    res = translate_program(prog)
    assert not res.ok
    assert res.diagnostics[0].code == ASSERT_ON_STRUCT


def test_require_wellformed_raises():
    prog = parse_program("""
    package main
    type A struct { f A }
    func main() { _ = A{} }
    """)
    with pytest.raises(FgError):
        fg.require_wellformed(prog)


def test_prim_types_only_in_ext_mode():
    src = """
    package main
    type A struct { n int }
    func main() { _ = A{1} }
    """
    assert codes(parse_program(src, mode=fg.EXT)) == []
    with pytest.raises(FgError):
        parse_program(src, mode=fg.CORE)


def test_prims_never_subtype_interfaces():
    prog = parse_program("""
    package main
    type A struct {}
    type I interface {}
    func main() { _ = A{} }
    """, mode=fg.EXT)
    decls = prog.table
    assert fg.is_subtype(decls, "A", "I")  # empty interface: everything declared
    assert not fg.is_subtype(decls, fg.INT, "I")
    assert not fg.is_subtype(decls, fg.BOOL, "I")


def test_ext_node_in_core_mode_is_ill_formed():
    # The core-mode parser never builds an extension node; a program built
    # directly can hold one, and the checked pipeline rejects it.
    prog = fg.Program((), fg.IntLit(1), fg.CORE)
    assert codes(prog) == [EXT_NODE_IN_CORE]
    with pytest.raises(FgError) as ei:
        require_translation(prog)
    assert [d.code for d in ei.value.diagnostics] == [EXT_NODE_IN_CORE]
