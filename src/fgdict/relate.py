"""Fuel-bounded executable form of the step-indexed value relation between
FG and TL, plus the differential runner.

The relation checker decides relatedness of final values:

* at a struct type the TL value must be the tagged tuple of related field
  values (same index);
* at an interface type it must be an interface value whose payload is
  related at the payload's struct type with a strictly smaller index and
  whose dictionary slots are syntactically the canonical method variables
  for that struct, in interface spec order;
* index 0 relates everything (the relation's bounded quantifiers are
  vacuous there).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from . import fg_ast as fg
from . import fg_interp
from . import tl_ast as tl
from . import tl_interp
from .fg_parser import print_program as print_fg
from .outcome import OutOfFuel, StuckOutcome
# translate_program is bound here for bench/tracing.py, which wraps it where
# its callers look it up.
from .translate import require_translation, translate_method, translate_program  # noqa: F401

DEFAULT_EVAL_FUEL = 10 ** 5
DEFAULT_RELATION_FUEL = 64

AGREE = "agree"
BOTH_STUCK = "both-stuck"
DISAGREE = "disagree"
BUDGET = "budget"


def values_related(decls: fg.Decls, mu, t: str, v, V, k: int) -> bool:
    """Decidable witness for the value relation at type t and index k."""
    if k <= 0:
        return True
    kind = decls.kind(t)
    if kind == "prim":
        if t == fg.INT:
            return isinstance(v, fg.IntLit) and isinstance(V, tl.TLInt) and \
                v.value == V.value
        return isinstance(v, fg.BoolLit) and isinstance(V, tl.TLBool) and \
            v.value == V.value
    if kind == "struct":
        if not (isinstance(v, fg.StructLit) and v.type_name == t):
            return False
        if not (isinstance(V, tl.CtorApp) and V.ctor == tl.struct_ctor(t)):
            return False
        fields = decls.struct_fields(t)
        if len(V.args) != len(fields) or len(v.args) != len(fields):
            return False
        return all(values_related(decls, mu, ft, va, Va, k)
                   for (_f, ft), va, Va in zip(fields, v.args, V.args))
    # interface type
    specs = decls.iface_specs(t)
    if not (isinstance(V, tl.CtorApp) and V.ctor == tl.struct_ctor(t)):
        return False
    if len(V.args) != 1 + len(specs):
        return False
    payload = V.args[0]
    if not isinstance(payload, tl.CtorApp):
        return False
    u_s = tl.ctor_type(payload.ctor)
    if u_s not in decls.types or decls.kind(u_s) != "struct":
        return False
    if not values_related(decls, mu, u_s, v, payload, k - 1):
        return False
    for spec, slot in zip(specs, V.args[1:]):
        name = tl.method_var_name(spec.name, u_s)
        if not (isinstance(slot, tl.MethodVar) and slot.name == name):
            return False
        if (u_s, spec.name) not in decls.method_decls or name not in mu:
            return False
    return True


def methods_related(decls: fg.Decls, prog: tl.TLProgram, hoist_helpers=False) -> bool:
    """Every FG method declaration must map, under the program's method
    substitution, to exactly the translation of that declaration."""
    mu = prog.method_subst()
    for d in decls.decls:
        if not isinstance(d, fg.MethodDecl):
            continue
        name, lam = translate_method(decls, d, hoist_helpers=hoist_helpers)
        if mu.get(name) != lam:
            return False
    return True


@dataclass(frozen=True)
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


def diff_run(prog: fg.Program, fuel=DEFAULT_EVAL_FUEL,
             rel_fuel=DEFAULT_RELATION_FUEL, hoist_helpers=False,
             inject_identity_upcasts=False) -> Verdict:
    """Run main under both semantics and relate the outcomes.  Raises
    FgError for an ill-formed or ill-typed program."""
    res = require_translation(prog, hoist_helpers=hoist_helpers,
                              inject_identity_upcasts=inject_identity_upcasts)
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
        return Verdict(BOTH_STUCK, main_type=res.main_type,
                       fg_reason=fg_out.reason, tl_reason=tl_out.reason,
                       fg_steps=fg_out.steps, tl_steps=tl_out.steps)
    if fg_stuck != tl_stuck:
        stuck = "FG" if fg_stuck else "TL"
        return Verdict(DISAGREE, main_type=res.main_type,
                       fg_steps=fg_out.steps, tl_steps=tl_out.steps,
                       fg_reason=getattr(fg_out, "reason", None),
                       tl_reason=getattr(tl_out, "reason", None),
                       detail=f"{stuck} side stuck, other side produced a value")
    if values_related(decls, mu, res.main_type, fg_out.value, tl_out.value, rel_fuel):
        return Verdict(AGREE, main_type=res.main_type,
                       fg_value=fg_out.value, tl_value=tl_out.value,
                       fg_steps=fg_out.steps, tl_steps=tl_out.steps)
    return Verdict(DISAGREE, main_type=res.main_type,
                   fg_value=fg_out.value, tl_value=tl_out.value,
                   fg_steps=fg_out.steps, tl_steps=tl_out.steps,
                   detail=f"values unrelated at type {res.main_type}")


def harvest_related(decls: fg.Decls, t: str, v, V, out=None):
    """Recursively collect (type, fg value, tl value) triples below a related
    root pair, for the monotonicity/preservation suites."""
    if out is None:
        out = []
    out.append((t, v, V))
    kind = decls.kind(t)
    if kind == "struct" and isinstance(V, tl.CtorApp):
        for (_f, ft), va, Va in zip(decls.struct_fields(t), v.args, V.args):
            harvest_related(decls, ft, va, Va, out)
    elif kind == "interface" and isinstance(V, tl.CtorApp) and V.args:
        payload = V.args[0]
        u_s = isinstance(payload, tl.CtorApp) and tl.ctor_type(payload.ctor)
        if u_s:
            harvest_related(decls, u_s, v, payload, out)
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
    if verdict.kind == BOTH_STUCK:
        rec["fg-reason"] = verdict.fg_reason
        rec["tl-reason"] = verdict.tl_reason
    return rec
