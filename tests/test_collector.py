"""The passes run with the cyclic collector paused
(`diagnostics.collector_paused`).  That is safe because no pass makes a
reference cycle, so reference counting frees every tree; the first test pins
that.  The others check that a pass leaves the collector as it found it."""

import gc
from collections import Counter
from pathlib import Path

import pytest

from fgdict import fg_interp, gen, relate, tl_ast as tl, tl_interp
from fgdict.diagnostics import FgError
from fgdict.fg_parser import parse_program
from fgdict.gen import GenConfig, gen_program
from fgdict.relate import BOTH_STUCK, diff_run
from fgdict.translate import require_translation

from helpers import sample_programs

STUCK = "corpus/stuck/assert01.fg"
RUNAWAY = """
package main
type A struct {}
func (this A) grow() A { return A{}.grow().id() }
func (this A) id() A { return this }
func main() { _ = A{}.grow() }
"""
FG_SYNTAX_ERROR = "package main\nfunc main() { _ = }\n"
TL_SYNTAX_ERROR = "let in"
ILL_TYPED = "package main\ntype A struct {}\nfunc main() { _ = A{}.m() }\n"


@pytest.fixture(autouse=True)
def collector():
    """The collector enabled, as a test starts and after it ends."""
    gc.enable()
    yield
    gc.enable()


def _raises_fg_error(fn, *args):
    """Whether `fn(*args)` raises FgError.  Not `pytest.raises`, whose
    record of the exception refers to the frame that holds the record."""
    try:
        fn(*args)
    except FgError:
        return True
    return False


def _run_every_pass():
    for prog in sample_programs(range(100)):
        for hoist in (False, True):
            text = tl.print_program(require_translation(prog, hoist_helpers=hoist).tl_program)
            assert tl.validate_program(tl.parse_program(text)) == []
        diff_run(prog)

    lines = []

    def trace(*step):
        lines.append(step)

    stuck = parse_program(Path(STUCK).read_text(encoding="utf-8"))
    runaway = parse_program(RUNAWAY)
    for prog, outcome in [(stuck, fg_interp.StuckOutcome), (runaway, fg_interp.OutOfFuel)]:
        res = require_translation(prog)
        assert isinstance(fg_interp.fg_eval(prog.table, prog.main, 200, trace), outcome)
        assert isinstance(tl_interp.tl_eval(res.tl_program.method_subst(), res.tl_program.main,
                                            200, trace), outcome)
    assert lines

    assert _raises_fg_error(parse_program, FG_SYNTAX_ERROR)
    assert _raises_fg_error(tl.parse_program, TL_SYNTAX_ERROR)
    assert _raises_fg_error(require_translation, parse_program(ILL_TYPED))


def test_no_pass_leaves_cyclic_garbage():
    gc.disable()  # for the whole run, so that no collection hides a cycle
    gc.collect()
    _run_every_pass()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collection finds, to name it
    try:
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert found == 0, kinds.most_common(10)


def _passes():
    """(name, call, whether it raises FgError): a normal return of each
    pass, and an FgError from each reader and from `require_translation`."""
    prog = parse_program(Path(STUCK).read_text(encoding="utf-8"))
    res = require_translation(prog)
    return [
        ("fg parse", lambda: parse_program(RUNAWAY), False),
        ("tl parse", lambda: tl.parse_program(tl.print_program(res.tl_program)), False),
        ("validate", lambda: tl.validate_program(res.tl_program), False),
        ("translate", lambda: require_translation(prog, hoist_helpers=True), False),
        ("fg_eval", lambda: fg_interp.fg_eval(prog.table, prog.main, 100), False),
        ("tl_eval", lambda: tl_interp.run_program(res.tl_program, 100), False),
        ("diff_run", lambda: diff_run(prog), False),
        ("gen", lambda: gen_program(GenConfig(seed=0)), False),
        ("fg syntax error", lambda: parse_program(FG_SYNTAX_ERROR), True),
        ("tl syntax error", lambda: tl.parse_program(TL_SYNTAX_ERROR), True),
        ("ill-typed", lambda: require_translation(parse_program(ILL_TYPED)), True),
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_a_pass_leaves_the_collector_as_it_found_it(enabled):
    for name, call, raises in _passes():
        (gc.enable if enabled else gc.disable)()
        assert _raises_fg_error(call) == raises, name
        assert gc.isenabled() == enabled, name


def test_nested_passes_restore_the_collector_once(monkeypatch):
    seen = []
    fg_eval = fg_interp.fg_eval

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return fg_eval(*args, **kwargs)

    monkeypatch.setattr(fg_interp, "fg_eval", recording)
    prog = parse_program(Path(STUCK).read_text(encoding="utf-8"))
    assert relate.diff_run(prog).kind == BOTH_STUCK
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_the_shrink_predicate_sees_the_callers_state(enabled):
    seen = []

    def failing(cand):
        seen.append(gc.isenabled())
        return diff_run(cand).kind == BOTH_STUCK

    prog = parse_program(Path(STUCK).read_text(encoding="utf-8"))
    (gc.enable if enabled else gc.disable)()
    gen.shrink(prog, failing)
    assert gc.isenabled() == enabled
    assert seen and set(seen) == {enabled}
