"""Program generator and shrinker."""

import pytest

from fgdict import fg_ast as fg
from fgdict.fg_parser import print_program
from fgdict.gen import GenConfig, gen_program, minimal_value, shrink
from fgdict.relate import BOTH_STUCK, diff_run
from fgdict.translate import translate_program


def test_generated_programs_are_wellformed_and_typed():
    for seed in range(200):
        prog = gen_program(GenConfig(seed=seed))
        assert fg.check_wellformed(prog) == [], seed
        assert translate_program(prog).ok, seed


def test_ext_mode_generated_programs():
    for seed in range(60):
        prog = gen_program(GenConfig(seed=seed, mode=fg.EXT))
        assert prog.mode == fg.EXT
        assert fg.check_wellformed(prog) == [], seed
        assert translate_program(prog).ok, seed


def test_determinism():
    for seed in (0, 1, 17, 99):
        cfg = GenConfig(seed=seed)
        assert print_program(gen_program(cfg)) == print_program(gen_program(cfg))


def test_different_seeds_differ():
    texts = {print_program(gen_program(GenConfig(seed=s))) for s in range(30)}
    assert len(texts) > 20


def test_tiny_config():
    prog = gen_program(GenConfig(seed=0, max_structs=1, max_ifaces=0,
                                 expr_depth=1))
    assert fg.check_wellformed(prog) == []
    assert translate_program(prog).ok


def test_allow_unimplemented_still_typed():
    for seed in range(60):
        prog = gen_program(GenConfig(seed=seed, allow_unimplemented=True))
        assert fg.check_wellformed(prog) == [], seed
        assert translate_program(prog).ok, seed


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        GenConfig(max_structs=0)
    with pytest.raises(ValueError):
        GenConfig(assert_probability=2.0)


def test_minimal_value_is_closed_and_typed():
    prog = gen_program(GenConfig(seed=3))
    decls = prog.table
    for s in decls.struct_names:
        v = minimal_value(decls, s)
        assert isinstance(v, fg.StructLit)


def _find_stuck_seed():
    for seed in range(200):
        prog = gen_program(GenConfig(seed=seed))
        if diff_run(prog).kind == BOTH_STUCK:
            return prog
    raise AssertionError("no stuck seed found")


def test_shrink_preserves_failure_and_reaches_fixpoint():
    prog = _find_stuck_seed()
    failing = lambda p: diff_run(p).kind == BOTH_STUCK
    small = shrink(prog, failing)
    assert failing(small)
    assert fg.check_wellformed(small) == []
    assert len(print_program(small)) <= len(print_program(prog))
    # A second pass finds nothing further to remove.
    assert print_program(shrink(small, failing)) == print_program(small)


def test_shrink_of_minimal_witness_is_identity():
    from fgdict.fg_parser import parse_program
    prog = parse_program("""
    package main
    type A struct {}
    func main() { _ = A{} }
    """)
    assert shrink(prog, lambda p: True) is not None
    # The only shrink candidates either break well-formedness or typing.
    result = shrink(prog, lambda p: diff_run(p).kind == "agree")
    assert print_program(result) == print_program(prog)


def test_shrink_does_not_hide_crashes():
    prog = _find_stuck_seed()

    def crashing(p):
        raise RuntimeError("predicate bug")

    with pytest.raises(RuntimeError, match="predicate bug"):
        shrink(prog, crashing)
