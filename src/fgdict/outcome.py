"""Outcome vocabulary and fuel accounting shared by the FG and TL machines.

Both interpreters are abstract machines in the style of Felleisen and
Friedman's CEK machine: a control term, an environment and an explicit
continuation stack.  Only axiom rules cost a step; descending into an
evaluation context and returning a value to it are free.

A machine is a function `run(ctx, e, fuel, on_step)`.  It returns a
`Value`, `StuckOutcome` or `OutOfFuel`.  A stuck state is reported before
the fuel check, so a stuck term is reported as stuck even with no fuel
left.  After each step, if `on_step` is given, the machine calls
`on_step(steps, rule, state)`.  `state` is opaque here; the machine's own
`plug(state)` turns it back into the term that the small-step semantics
would have produced at that point.
"""

from __future__ import annotations

from .diagnostics import record

BAD_PRIM = "bad-prim"


@record
class Value:
    value: object
    steps: int


@record
class StuckOutcome:
    reason: str
    detail: str
    steps: int


@record
class OutOfFuel:
    steps: int


@record
class Stepped:
    expr: object
    rule: str


class _Stuck(Exception):
    def __init__(self, reason, detail):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}")


def check_fuel(fuel: int):
    if fuel < 0:
        raise ValueError("fuel must be non-negative")


def prim(op, a, b, int_lit, bool_lit):
    """The primitive operators on the literal classes of one language."""
    if op in ("==", "<"):
        if not (isinstance(a, int_lit) and isinstance(b, int_lit)):
            raise _Stuck(BAD_PRIM, f"{op} applied to non-int operands")
        return bool_lit(a.value == b.value if op == "==" else a.value < b.value)
    if not (isinstance(a, bool_lit) and isinstance(b, bool_lit)):
        raise _Stuck(BAD_PRIM, f"{op} applied to non-bool operands")
    return bool_lit(a.value and b.value if op == "&&" else a.value or b.value)


def tracer(trace, plug, printer):
    """The machine's `on_step` for a `trace(step_number, rule, text)`
    callback: the continuation is plugged back into a term only here."""
    if trace is None:
        return None

    def on_step(n, rule, state):
        trace(n, rule, printer(plug(state)))

    return on_step


def step_once(run, plug, ctx, e):
    """One-step view of a machine: Stepped(e', rule), or the run's own
    Value or StuckOutcome, with 0 steps, when no step applies."""
    taken = []

    def keep(_n, rule, state):
        taken.append(Stepped(plug(state), rule))

    out = run(ctx, e, 1, keep)
    return taken[0] if taken else out
