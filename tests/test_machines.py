"""Each abstract machine against its own one-step semantics.

Running a machine with a trace reports, after every step, the rule it fired
and the term its state stands for.  Iterating the one-step function from the
same term, replugging the whole term each time, must report the same
sequence and end in the same way.  This covers every frame shape the
machines build, through their plugs, and it pins each machine's descent
order to the context order `fg_ast.children` and `tl_ast.children` state.
"""

import pytest

from fgdict import fg_ast as fg, fg_interp, tl_ast as tl, tl_interp
from fgdict.fg_parser import print_expr
from fgdict.gen import GenConfig, gen_program
from fgdict.outcome import OutOfFuel, Stepped, StuckOutcome, Value
from fgdict.translate import translate_program

SEEDS = range(75)
FUEL = 2000


def _stepped(step, ctx, e, printer):
    """The (rule, printed term) sequence of iterating `step` from `e`, at
    most FUEL steps, and the outcome it ends in."""
    seq = []
    while len(seq) < FUEL:
        r = step(ctx, e)
        if type(r) is not Stepped:
            return seq, r
        e = r.expr
        seq.append((r.rule, printer(e)))
    return seq, OutOfFuel(FUEL)


def _traced(evaluate, ctx, e):
    """The (rule, printed term) sequence a traced run reports, and its
    outcome."""
    seq = []
    out = evaluate(ctx, e, FUEL, trace=lambda _n, rule, text: seq.append((rule, text)))
    return seq, out


def _ending(out, printer):
    if type(out) is Value:
        return "value", printer(out.value)
    if type(out) is StuckOutcome:
        return "stuck", out.reason, out.detail
    assert type(out) is OutOfFuel
    return "out-of-fuel"


def _agree(step, evaluate, ctx, e, printer):
    want, want_out = _stepped(step, ctx, e, printer)
    got, got_out = _traced(evaluate, ctx, e)
    assert got == want
    assert _ending(got_out, printer) == _ending(want_out, printer)
    assert got_out.steps == len(got)
    return len(got)


@pytest.mark.parametrize("mode", [fg.CORE, fg.EXT])
def test_fg_machine_is_its_one_step_semantics(mode):
    steps = 0
    for seed in SEEDS:
        prog = gen_program(GenConfig(seed=seed, mode=mode))
        steps += _agree(fg_interp.fg_step, fg_interp.fg_eval, prog.table, prog.main,
                        print_expr)
    assert steps > 0


@pytest.mark.parametrize("mode", [fg.CORE, fg.EXT])
def test_tl_machine_is_its_one_step_semantics(mode):
    steps = 0
    for seed in SEEDS:
        tl_prog = translate_program(gen_program(GenConfig(seed=seed, mode=mode))).tl_program
        steps += _agree(tl_interp.tl_step, tl_interp.tl_eval, tl_prog.method_subst(),
                        tl_prog.main, tl.print_expr)
    assert steps > 0
