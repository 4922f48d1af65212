"""The exact value relation between FG and TL final values, plus the
differential runner.

Final values are finite first-order trees, so the relation has no step
index and compares the whole value:

* at a struct type the TL value must be the tagged tuple of related field
  values;
* at an interface type it must be an interface value whose payload is
  related at the payload's struct type and whose dictionary slots are
  syntactically the canonical method variables for that struct, in
  interface spec order.
"""

from __future__ import annotations

import hashlib

from . import fg_ast as fg
from . import fg_interp
from . import tl_ast as tl
from . import tl_interp
from .diagnostics import collector_paused, record
from .fg_parser import print_program as print_fg
from .outcome import OutOfFuel, StuckOutcome
# translate_program is bound here for bench/tracing.py, which wraps it where
# its callers look it up.
from .translate import require_translation, translate_program  # noqa: F401

DEFAULT_EVAL_FUEL = 10 ** 5
DEFAULT_RELATION_FUEL = 64  # only echoed as the v1 record's "rel-fuel"

AGREE = "agree"
BOTH_STUCK = "both-stuck"
DISAGREE = "disagree"
BUDGET = "budget"


def values_related(decls: fg.Decls, mu, t: str, v, V) -> bool:
    """Whether FG value v and TL value V are related at type t.  The pairs
    still to relate wait on an explicit stack, in pre-order, so values of
    any depth relate; each type's facts are read once per call."""
    facts = {}  # type -> (kind, constructor, field types)
    slots = {}  # (interface, payload constructor) -> _dict_slots
    todo = [(t, v, V)]
    pop, push = todo.pop, todo.append
    while todo:
        t, v, V = pop()
        fact = facts.get(t)
        if fact is None:
            kind = decls.kind(t)
            fact = facts[t] = kind, tl.struct_ctor(t), kind == "struct" and tuple(
                ft for _f, ft in decls.struct_fields(t))
        kind, ctor, types = fact
        if kind == "struct":
            if not (type(v) is fg.StructLit and v.type_name == t
                    and type(V) is tl.CtorApp and V.ctor == ctor):
                return False
            args, tl_args = v.args, V.args
            i = len(types)
            if len(tl_args) != i or len(args) != i:
                return False
            while i:
                i -= 1
                push((types[i], args[i], tl_args[i]))
        elif kind == "prim":
            lit, tl_lit = (fg.IntLit, tl.TLInt) if t == fg.INT else (fg.BoolLit, tl.TLBool)
            if not (isinstance(v, lit) and isinstance(V, tl_lit) and v.value == V.value):
                return False
        else:  # interface type
            if not (type(V) is tl.CtorApp and V.ctor == ctor
                    and V.args and type(V.args[0]) is tl.CtorApp):
                return False
            payload = V.args[0]
            key = t, payload.ctor
            if key not in slots:
                slots[key] = _dict_slots(decls, mu, t, payload.ctor)
            want = slots[key]
            if want is None or V.args[1:] != want[1]:
                return False
            push((want[0], v, payload))
    return True


def _dict_slots(decls: fg.Decls, mu, t: str, ctor: str):
    """The payload's struct and the dictionary, in spec order, of an
    interface value of type t whose payload constructor is `ctor`; None if
    no such value relates: the struct is not declared, or lacks a method of
    t, or mu does not bind it."""
    u_s = tl.ctor_type(ctor)
    if u_s not in decls.types or decls.kind(u_s) != "struct":
        return None
    dictionary = []
    for spec in decls.iface_specs(t):
        name = tl.method_var_name(spec.name, u_s)
        if (u_s, spec.name) not in decls.method_decls or name not in mu:
            return None
        dictionary.append(tl.MethodVar(name))
    return u_s, tuple(dictionary)


@record
class Verdict:
    kind: str  # agree | both-stuck | disagree | budget
    main_type: str = None
    fg_value: object = None
    tl_value: object = None
    fg_steps: int = -1
    tl_steps: int = -1
    fg_reason: str = None
    tl_reason: str = None
    detail: str = None
    side: str = None  # which side ran out of fuel, for budget

    def exit_code(self):
        return {AGREE: 0, BOTH_STUCK: 0, DISAGREE: 2, BUDGET: 3}[self.kind]


@collector_paused
def diff_run(prog: fg.Program, fuel=DEFAULT_EVAL_FUEL,
             rel_fuel=DEFAULT_RELATION_FUEL) -> Verdict:
    """Run main under both semantics and relate the outcomes.  Raises
    FgError for an ill-formed or ill-typed program.  A program that
    carries its translation (a candidate of `gen.shrink`) is not
    translated again.  Nothing reads `rel_fuel`; `bench/` still passes it."""
    res = getattr(prog, "translation", None)
    if res is None:
        res = require_translation(prog)
    decls = prog.table
    mu = res.tl_program.method_subst()
    fg_out = fg_interp.fg_eval(decls, prog.main, fuel)
    tl_out = tl_interp.tl_eval(mu, res.tl_program.main, fuel)

    fg_fuel = isinstance(fg_out, OutOfFuel)
    tl_fuel = isinstance(tl_out, OutOfFuel)
    if fg_fuel or tl_fuel:
        side = "both" if fg_fuel and tl_fuel else "fg" if fg_fuel else "tl"
        return Verdict(BUDGET, main_type=res.main_type, side=side,
                       fg_steps=fg_out.steps, tl_steps=tl_out.steps)

    fg_stuck = isinstance(fg_out, StuckOutcome)
    tl_stuck = isinstance(tl_out, StuckOutcome)
    if fg_stuck and tl_stuck:
        # A well-typed FG program gets stuck only at a failed type assertion,
        # which the translation turns into a failed match on the same struct.
        detail = None
        if (fg_out.reason, tl_out.reason) != (fg_interp.ASSERT_FAILURE,
                                              tl_interp.MATCH_FAILURE):
            detail = f"both sides stuck: fg {fg_out.reason}, tl {tl_out.reason}"
        elif fg_out.struct != tl_out.struct:
            detail = f"both sides stuck: fg on {fg_out.struct}, tl on {tl_out.struct}"
        return Verdict(DISAGREE if detail else BOTH_STUCK, main_type=res.main_type,
                       fg_reason=fg_out.reason, tl_reason=tl_out.reason,
                       fg_steps=fg_out.steps, tl_steps=tl_out.steps, detail=detail)
    if fg_stuck != tl_stuck:
        side, out = ("FG", fg_out) if fg_stuck else ("TL", tl_out)
        return Verdict(DISAGREE, main_type=res.main_type,
                       fg_steps=fg_out.steps, tl_steps=tl_out.steps,
                       fg_reason=getattr(fg_out, "reason", None),
                       tl_reason=getattr(tl_out, "reason", None),
                       detail=f"{side} side stuck ({out.reason}: {out.detail}), "
                              "other side produced a value")
    if values_related(decls, mu, res.main_type, fg_out.value, tl_out.value):
        return Verdict(AGREE, main_type=res.main_type,
                       fg_value=fg_out.value, tl_value=tl_out.value,
                       fg_steps=fg_out.steps, tl_steps=tl_out.steps)
    return Verdict(DISAGREE, main_type=res.main_type,
                   fg_value=fg_out.value, tl_value=tl_out.value,
                   fg_steps=fg_out.steps, tl_steps=tl_out.steps,
                   detail=f"values unrelated at type {res.main_type}")


def program_hash(prog: fg.Program) -> str:
    return hashlib.sha256(print_fg(prog).encode()).hexdigest()[:16]


def verdict_json(prog, verdict: Verdict, fuel, rel_fuel, seed=None):
    rec = {
        "v": 1,
        "program-hash": program_hash(prog),
        "verdict": verdict.kind,
        "fg-steps": verdict.fg_steps,
        "tl-steps": verdict.tl_steps,
        "fuel": fuel,
        "rel-fuel": rel_fuel,
        "seed": seed,
    }
    if verdict.detail:
        rec["detail"] = verdict.detail
    if verdict.fg_reason:
        rec["fg-reason"] = verdict.fg_reason
    if verdict.tl_reason:
        rec["tl-reason"] = verdict.tl_reason
    return rec
