"""End-to-end acceptance suite.

Each test prints a single pass/fail line so the whole gate can be read off
`pytest -v -s tests/test_acceptance.py` at a glance.
"""

import glob
import json
import time
from pathlib import Path

import pytest

from fgdict import fg_ast as fg, fg_interp, tl_ast as tl, tl_interp
from fgdict.fg_parser import parse_program, print_expr, print_program
from fgdict.gen import GenConfig, gen_program
from fgdict.relate import AGREE, BOTH_STUCK, BUDGET, DISAGREE, diff_run, values_related
from fgdict.translate import Translator, require_translation, translate_program
from helpers import deepest_leaf_changed, harvest_related

EVAL_FUEL = 10 ** 5


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def load(path, mode=fg.CORE):
    return parse_program(Path(path).read_text(encoding="utf-8"), mode=mode, filename=path)


def corpus_entries():
    manifest = json.loads(Path("corpus/manifest.json").read_text(encoding="utf-8"))
    return manifest["files"]


@pytest.fixture(scope="module")
def fuzz_results():
    """Shared 1000-seed differential run at the stated budgets."""
    results = []
    for seed in range(1000):
        prog = gen_program(GenConfig(seed=seed))
        results.append((seed, prog, diff_run(prog, fuel=EVAL_FUEL)))
    return results


@pytest.fixture(scope="module")
def harvested():
    """Related (type, source value, target value) triples harvested from
    agreeing runs, together with each program's tables."""
    triples = []
    for seed in range(1000):
        prog = gen_program(GenConfig(seed=seed))
        res = translate_program(prog)
        if not res.ok:
            continue
        decls = prog.table
        mu = res.tl_program.method_subst()
        fg_out = fg_interp.fg_eval(decls, prog.main, EVAL_FUEL)
        tl_out = tl_interp.run_program(res.tl_program, EVAL_FUEL)
        if not (isinstance(fg_out, fg_interp.Value) and
                isinstance(tl_out, tl_interp.Value)):
            continue
        for t, v, V in harvest_related(decls, res.main_type,
                                       fg_out.value, tl_out.value):
            triples.append((decls, mu, t, v, V))
        if len(triples) >= 400:
            break
    return triples


def test_criterion_1_running_example():
    t0 = time.time()
    prog = load("corpus/equality.fg", mode=fg.EXT)
    ok = fg.check_wellformed(prog) == []

    hoisted = require_translation(prog, hoist_helpers=True)
    names = {n: lam for n, lam in hoisted.tl_program.bindings}
    expected = ["to_Eq_Int", "to_Eq_Pair", "to_Eq_Ord",
                "from_Eq_Int", "from_Eq_Pair", "from_Ord_Int"]
    ok = ok and all(n in names for n in expected)

    # Constructor shape: \x -> K_Eq x eq_Int
    lam = names.get("to_Eq_Int")
    ok = ok and isinstance(lam, tl.Lam) and lam.body == tl.CtorApp(
        "K_Eq", (tl.TLVar(lam.var), tl.MethodVar("eq_Int")))
    # Interface-to-interface constructor drops the lt slot.
    lam = names.get("to_Eq_Ord")
    ok = ok and isinstance(lam, tl.Lam) and isinstance(lam.body, tl.Case)
    # Destructor shape: outer unpack of K_Eq, inner match on K_Int.
    lam = names.get("from_Eq_Int")
    ok = ok and isinstance(lam.body, tl.Case) and \
        lam.body.clauses[0].pat.ctor == "K_Eq" and \
        lam.body.clauses[0].body.clauses[0].pat.ctor == "K_Int"

    verdict = diff_run(prog, fuel=EVAL_FUEL)
    golden = json.loads(Path("corpus/equality.golden.json").read_text(encoding="utf-8"))
    ok = ok and verdict.kind == AGREE
    ok = ok and verdict.main_type == golden["main-type"]
    ok = ok and print_expr(verdict.fg_value) == golden["value"]
    ok = ok and verdict.fg_steps == golden["fg-steps"]

    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report("criterion 1: running example matches golden shapes and value",
           ok, f"{elapsed:.2f}s")


def test_criterion_2_differential_fuzzing(fuzz_results):
    t0 = time.time()
    counts = {AGREE: 0, BOTH_STUCK: 0, DISAGREE: 0, BUDGET: 0}
    for _seed, _prog, v in fuzz_results:
        counts[v.kind] += 1
    elapsed = time.time() - t0  # fixture cost is inside the module run
    good = counts[AGREE] + counts[BOTH_STUCK]
    ok = counts[DISAGREE] == 0 and good >= 950 and \
        counts[BUDGET] == 1000 - good
    report("criterion 2: 1000-seed differential run",
           ok, f"agree {counts[AGREE]}, both-stuck {counts[BOTH_STUCK]}, "
               f"budget {counts[BUDGET]}, disagree {counts[DISAGREE]}")


def test_criterion_2_runtime():
    t0 = time.time()
    for seed in range(1000):
        prog = gen_program(GenConfig(seed=seed))
        diff_run(prog, fuel=EVAL_FUEL)
    elapsed = time.time() - t0
    report("criterion 2: runtime under 60 s", elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_3_exactness(harvested):
    """Each harvested pair is related, and stops being related when its TL
    value's deepest leaf changes: the relation compares the whole value."""
    violations = [(t, V) for decls, mu, t, v, V in harvested
                  if not values_related(decls, mu, t, v, V)
                  or values_related(decls, mu, t, v, deepest_leaf_changed(V))]
    ok = len(harvested) >= 200 and not violations
    report("criterion 3: the relation compares every pair down to its deepest leaf",
           ok, f"{len(harvested)} triples, {len(violations)} violations")


def test_criterion_4_cast_preservation(harvested):
    checked = 0
    bad = []
    for decls, mu, t, v, V in harvested:
        kind = decls.kind(t)
        if kind == "prim":
            continue
        tr = Translator(decls)
        # Constructor edges: every declared supertype interface.
        for u in decls.iface_names:
            if not fg.is_subtype(decls, t, u):
                continue
            out = tl_interp.tl_eval(mu, tl.App(tr.build_upcast(t, u), V), 10)
            want_steps = 1 if kind == "struct" else 2
            if not (isinstance(out, tl_interp.Value) and
                    out.steps == want_steps and
                    values_related(decls, mu, u, v, out.value)):
                bad.append((t, u, "upcast"))
            checked += 1
        # Destructor edges: every declared type an assertion could target.
        if kind != "interface":
            continue
        targets = [s for s in decls.struct_names if fg.is_subtype(decls, s, t)]
        targets += list(decls.iface_names)
        dyn = fg_interp.value_type(v)
        for u in targets:
            out = tl_interp.tl_eval(mu, tl.App(tr.build_downcast(t, u), V), 10)
            if fg.is_subtype(decls, dyn, u):
                if not (isinstance(out, tl_interp.Value) and out.steps == 3 and
                        values_related(decls, mu, u, v, out.value)):
                    bad.append((t, u, "downcast-success"))
            else:
                # The source-side assertion sticks; the target side must too.
                if not isinstance(out, tl_interp.StuckOutcome):
                    bad.append((t, u, "downcast-failure"))
            checked += 1
    ok = checked >= 200 and not bad
    report("criterion 4: casts preserve relatedness at stated step costs",
           ok, f"{checked} edges, {len(bad)} violations")


def test_criterion_5_coherence(monkeypatch):
    progs = [gen_program(GenConfig(seed=seed)) for seed in range(100)]

    def run_all():
        return [(diff_run(prog, fuel=EVAL_FUEL).kind,
                 tl.print_program(require_translation(prog).tl_program))
                for prog in progs]

    plain = run_all()
    coerce_to = Translator.coerce_to

    def coerce_with_identity_upcast(self, have, want, *args, **kwargs):
        out = coerce_to(self, have, want, *args, **kwargs)
        if self.decls.kind(want) == "interface":
            out = tl.App(self.build_upcast(want, want), out)
        return out

    monkeypatch.setattr(Translator, "coerce_to", coerce_with_identity_upcast)
    instrumented = run_all()
    mismatches = sum(a[0] != b[0] for a, b in zip(plain, instrumented))
    # A patch that injects nothing would pass the verdict check vacuously.
    injected = sum(a[1] != b[1] for a, b in zip(plain, instrumented))
    report("criterion 5: identity upcast injection preserves verdicts",
           mismatches == 0 and injected > 0,
           f"{mismatches} mismatches over 100 seeds, {injected} translations changed")


def test_criterion_6_stuckness_fidelity():
    files = sorted(glob.glob("corpus/stuck/*.fg"))
    verdicts = [diff_run(load(p), fuel=EVAL_FUEL).kind for p in files]
    ok = len(files) == 10 and all(k == BOTH_STUCK for k in verdicts)
    report("criterion 6: failing assertions stick on both sides",
           ok, f"{verdicts.count(BOTH_STUCK)}/10 both-stuck")


def test_criterion_7_wellformedness_suite():
    from fgdict.diagnostics import (
        ASSERT_ON_STRUCT, FG1_RECURSIVE_STRUCT, FG2_DUP_FIELD, FG3_DUP_SPEC,
        FG4_DUP_METHOD,
    )
    cases = [
        # (accepted source, rejected source, expected diagnostic code)
        ("type A struct {}\ntype B struct { a A }\nfunc main() { _ = A{} }",
         "type A struct { b B }\ntype B struct { a A }\nfunc main() { _ = A{} }",
         FG1_RECURSIVE_STRUCT),
        ("type A struct {}\ntype B struct { x A; y A }\nfunc main() { _ = A{} }",
         "type A struct {}\ntype B struct { x A; x A }\nfunc main() { _ = A{} }",
         FG2_DUP_FIELD),
        ("type A struct {}\ntype I interface { m() A; n() A }\nfunc main() { _ = A{} }",
         "type A struct {}\ntype I interface { m() A; m() A }\nfunc main() { _ = A{} }",
         FG3_DUP_SPEC),
        ("type A struct {}\nfunc (this A) m() A { return A{} }\n"
         "func (this A) n() A { return A{} }\nfunc main() { _ = A{} }",
         "type A struct {}\nfunc (this A) m() A { return A{} }\n"
         "func (this A) m() A { return A{} }\nfunc main() { _ = A{} }",
         FG4_DUP_METHOD),
    ]
    ok = True
    for accept_src, reject_src, code in cases:
        ok = ok and fg.check_wellformed(parse_program(accept_src)) == []
        got = [d.code for d in fg.check_wellformed(parse_program(reject_src))]
        ok = ok and got == [code]
    # Assertions whose subject is a struct type are not part of the language.
    res = translate_program(parse_program(
        "type A struct {}\ntype B struct {}\nfunc main() { _ = A{}.(B) }"))
    ok = ok and not res.ok and res.diagnostics[0].code == ASSERT_ON_STRUCT
    report("criterion 7: well-formedness accept/reject pairs with stable codes", ok)


def test_criterion_8_determinism(tmp_path):
    ok = True
    for entry in corpus_entries():
        prog = load(f"corpus/{entry['path']}", mode=entry["mode"])
        a = tl.print_program(require_translation(prog).tl_program)
        b = tl.print_program(require_translation(prog).tl_program)
        ok = ok and a.encode() == b.encode()
        h1 = tl.print_program(require_translation(prog, hoist_helpers=True).tl_program)
        h2 = tl.print_program(require_translation(prog, hoist_helpers=True).tl_program)
        ok = ok and h1.encode() == h2.encode()
        ok = ok and diff_run(prog, fuel=EVAL_FUEL).kind == entry["verdict"]

    def stream(n=60, seed=0):
        out = []
        for s in range(seed, seed + n):
            prog = gen_program(GenConfig(seed=s))
            v = diff_run(prog, fuel=EVAL_FUEL)
            out.append((s, print_program(prog), v.kind, v.fg_steps, v.tl_steps))
        return out

    ok = ok and stream() == stream()
    report("criterion 8: byte-identical compiles and repeatable fuzz streams", ok)
