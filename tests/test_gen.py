"""Program generator and shrinker."""

import hashlib

import pytest

from fgdict import fg_ast as fg, gen
from fgdict.diagnostics import NOT_A_SUBTYPE, FgError
from fgdict.fg_parser import parse_program, print_program
from fgdict.gen import GenConfig, _candidates, gen_program, minimal_value, shrink
from fgdict.relate import BOTH_STUCK, diff_run
from fgdict.translate import Translator, fold, method_env, translate_program
from helpers import sample_programs

# sha256 over the printed programs of `_stream_configs`, recorded before the
# generator read subtyping from the declaration table.
STREAM_DIGEST = "29e57c91439d45c1296d9c26e1c1edb96965402780f2426be8201deb41a3cd03"
# The larger programs of the benchmark's compile workload (kept in step with
# bench/workloads.py COMPILE_CONFIG by hand: tests do not import bench).
COMPILE_CONFIG = dict(max_structs=16, max_ifaces=8, max_methods_per_iface=3,
                      max_fields=3, expr_depth=4)


def _stream_configs():
    for mode in (fg.CORE, fg.EXT):
        for seed in range(500):
            yield GenConfig(seed=seed, mode=mode)
    for i in range(33):
        yield GenConfig(seed=i, mode=(fg.CORE, fg.EXT)[i % 2], **COMPILE_CONFIG)


def test_generator_stream_is_pinned():
    """A generator refactor must not change a single generated program."""
    h = hashlib.sha256()
    for cfg in _stream_configs():
        h.update(print_program(gen_program(cfg)).encode() + b"\0")
    assert h.hexdigest() == STREAM_DIGEST


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


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        GenConfig(max_structs=0)


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


# -- the shrink workload's witnesses ------------------------------------------

# sha256 over the printed shrink outputs of `shrink_runs`, recorded before
# the shrinker decided candidates from the typing of the current program.
SHRINK_DIGEST = "3fa74445f212b3cacb3caf9cff5149f56e123ef50b4f34960fc11c31987391e0"
SHRINK_WITNESSES = 25


def _program_nodes(prog):
    return len(prog.decls) + sum(1 for _ in fg.program_exprs(prog))


def _relies(table, node):
    """What a declaration, or the expression `main`, relies on: the type
    names it names (field, signature and receiver types, struct literals and
    asserted types) and the (struct, method) pairs its code relies on.  The
    reference for `Translation.relies`: the node is typed by a translator of
    its own, whose (struct, method) pairs are kept, and the type names are
    read off the declaration and its expression."""
    if isinstance(node, fg.TypeDecl):
        if isinstance(node.literal, fg.StructType):
            return {t for _f, t in node.literal.fields}
        return {t for s in node.literal.specs for t in s.sig.param_types + (s.sig.ret,)}
    tr = Translator(table)
    names = set()
    if isinstance(node, fg.MethodDecl):
        have, code = tr.infer_expr(method_env(node), node.body)
        tr.coerce_to(have, node.sig.ret, code, node.body.span, NOT_A_SUBTYPE)
        names.update(node.sig.param_types, (node.recv_type, node.sig.ret))
        node = node.body
    else:
        tr.infer_expr({}, node)
    pairs = {u for u in tr.uses if type(u) is tuple}
    return pairs | names | {e.type_name for e in fg.expr_nodes(node)
                            if isinstance(e, (fg.StructLit, fg.Assert))}


def _relies_from_scratch(prog):
    return [_relies(prog.table, n) for n in prog.decls + (prog.main,)]


def _with_reference_relies(prog):
    """The translation of `prog` with each node's reliance set replaced by
    the reference's."""
    typed = translate_program(prog).typed
    return fold([(code, r) for (code, _r), r in zip(typed, _relies_from_scratch(prog))])


def test_translation_relies_match_the_reference():
    """`translate_program` types every node with one translator, which
    builds each helper once; the reliance sets it records must still be
    those of each node typed alone, in both helper modes."""
    for prog in sample_programs():
        expected = _relies_from_scratch(prog)
        for hoist in (False, True):
            assert translate_program(prog, hoist_helpers=hoist).relies == expected, \
                print_program(prog)


@pytest.fixture(scope="module")
def shrink_runs():
    """The inputs of the benchmark's shrink workload, the first both-stuck
    default-config programs, each shrunk keeping "both stuck with the same
    FG reason": (greedy path from input to output, output) per witness."""
    runs = []
    seed = 0
    while len(runs) < SHRINK_WITNESSES:
        prog = gen_program(GenConfig(seed=seed))
        seed += 1
        verdict = diff_run(prog)
        if verdict.kind != BOTH_STUCK:
            continue
        path = [prog]

        def failing(cand, reason=verdict.fg_reason, path=path):
            v = diff_run(cand)
            kept = v.kind == BOTH_STUCK and v.fg_reason == reason
            if kept:
                path.append(cand)
            return kept

        runs.append((path, shrink(prog, failing)))
    return runs


def test_shrink_outputs_are_pinned(shrink_runs):
    h = hashlib.sha256()
    for _path, out in shrink_runs:
        h.update(print_program(out).encode() + b"\0")
    assert h.hexdigest() == SHRINK_DIGEST
    assert sum(_program_nodes(out) for _path, out in shrink_runs) == 629


def test_candidate_decisions_match_the_checker(shrink_runs):
    """The shrinker decides each candidate from the typing of the program it
    was cut from; that must be exactly `translate_program(cand).ok`."""
    programs = [p for path, _out in shrink_runs for p in path]
    programs += [gen_program(GenConfig(seed=seed, mode=mode))
                 for mode in (fg.CORE, fg.EXT) for seed in range(100)]
    checked = rejected = 0
    for prog in programs:
        for cand, ok in _candidates(prog, _with_reference_relies(prog)):
            assert ok == translate_program(cand).ok, print_program(cand)
            checked += 1
            rejected += not ok
    assert checked > 7000 and rejected > checked // 2


# sha256 over the printed shrink outputs of `_shrink_path_programs`, recorded
# before the shrinker kept its reliance sets across steps.
SHRINK_PATH_DIGEST = "9513a523413cddd049dbc435c12a6530ff1db16f55aefec1d1edd956add30060"


def _shrink_path_programs():
    for mode in (fg.CORE, fg.EXT):
        for seed in range(100):
            yield gen_program(GenConfig(seed=seed, mode=mode))


def _same_kind_and_length(prog):
    """A predicate that holds on `prog`: the same verdict kind, and FG
    taking more than three steps or not.  Its shrink paths remove
    declarations and replace both `main` and method bodies."""
    verdict = diff_run(prog)
    key = (verdict.kind, verdict.fg_steps > 3)

    def failing(cand):
        v = diff_run(cand)
        return (v.kind, v.fg_steps > 3) == key
    return failing


def test_shrink_paths_are_pinned():
    h = hashlib.sha256()
    for prog in _shrink_path_programs():
        out = shrink(prog, _same_kind_and_length(prog))
        h.update(print_program(out).encode() + b"\0")
    assert h.hexdigest() == SHRINK_PATH_DIGEST


def test_shrink_keeps_the_reliance_sets(shrink_runs, monkeypatch):
    """`shrink` computes each node's reliance set once and updates only the
    node an accepted candidate changed; at every restart the kept list must
    equal the current program's, computed from scratch."""
    restarts = []

    def candidates(prog, res):
        assert res.relies == _relies_from_scratch(prog), print_program(prog)
        restarts.append(prog)
        return _candidates(prog, res)

    monkeypatch.setattr(gen, "_candidates", candidates)
    for path, out in shrink_runs:
        reason = diff_run(path[0]).fg_reason

        def failing(cand):
            v = diff_run(cand)
            return v.kind == BOTH_STUCK and v.fg_reason == reason

        assert shrink(path[0], failing) == out
    assert len(restarts) == sum(len(path) for path, _out in shrink_runs)
    for prog in _shrink_path_programs():
        shrink(prog, _same_kind_and_length(prog))
    assert len(restarts) > 1500


def test_shrink_rejects_ill_typed_input():
    prog = parse_program("""
    package main
    type A struct {}
    func main() { _ = A{}.m() }
    """)
    with pytest.raises(FgError) as err:
        shrink(prog, lambda p: True)
    assert [d.code for d in err.value.diagnostics] == ["unknown-method"]


def test_shrink_skips_candidates_whose_predicate_raises_fg_error(shrink_runs):
    path, out = shrink_runs[0]
    reason = diff_run(path[0]).fg_reason

    def failing(cand):
        v = diff_run(cand)
        return v.kind == BOTH_STUCK and v.fg_reason == reason

    def refusing(cand):
        # Refuse every candidate that drops a declaration.
        if len(cand.decls) < len(path[0].decls):
            raise FgError([])
        return failing(cand)

    kept = shrink(path[0], refusing)
    assert len(kept.decls) == len(path[0].decls)
    assert failing(kept)
    assert _program_nodes(kept) < _program_nodes(path[0])


# -- the translation a candidate carries ----------------------------------------


def _same_reason(prog):
    """The shrink workload's predicate: both sides stuck, with the FG reason
    they have on `prog`."""
    reason = diff_run(prog).fg_reason

    def failing(cand):
        v = diff_run(cand)
        return v.kind == BOTH_STUCK and v.fg_reason == reason
    return failing


def test_candidates_carry_the_translation_of_a_full_check(shrink_runs):
    """`shrink` builds each candidate's translation from its parent's and
    translates only a removal in full; the translation a candidate carries
    into the predicate must be the one `translate_program` gives it."""
    checked = 0

    def wrap(failing):
        def check(cand):
            nonlocal checked
            full = translate_program(cand)
            assert full.ok, print_program(cand)
            carried = cand.translation
            assert carried.tl_program == full.tl_program, print_program(cand)
            assert carried.main_type == full.main_type, print_program(cand)
            assert carried.relies == full.relies, print_program(cand)
            checked += 1
            return failing(cand)
        return check

    for path, out in shrink_runs:
        assert shrink(path[0], wrap(_same_reason(path[0]))) == out
    for prog in _shrink_path_programs():
        shrink(prog, wrap(_same_kind_and_length(prog)))
    assert checked > 2500


def test_shrink_returns_a_plain_program(shrink_runs):
    """A candidate's translation never leaks into the result: a carrier is
    never `==` to the plain program with the same fields."""
    prog = parse_program("""
    package main
    type A struct {}
    type B struct {}
    func main() { _ = A{} }
    """)
    out = shrink(prog, lambda p: True)
    assert type(out) is fg.Program
    assert out == parse_program("""
    package main
    type A struct {}
    func main() { _ = A{} }
    """)
    assert all(type(out) is fg.Program for _path, out in shrink_runs)


def test_a_carried_candidate_runs_as_its_plain_program(shrink_runs):
    """`diff_run` on a candidate that carries its translation gives the
    verdict it gives on the same program without one: a replaced body runs
    in FG too, not only in TL."""
    checked = 0

    def wrap(failing):
        def check(cand):
            nonlocal checked
            plain = fg.Program(cand.decls, cand.main, cand.mode)
            assert diff_run(cand) == diff_run(plain), print_program(cand)
            checked += 1
            return failing(cand)
        return check

    for path, out in shrink_runs:
        assert shrink(path[0], wrap(_same_reason(path[0]))) == out
    assert checked > 400


# -- the table a program holds ---------------------------------------------------

TABLE_FACTS = ("decls", "types", "struct_names", "iface_names", "method_decls",
               "methods_by_recv", "repeats", "spec_keys", "implementers", "field_index")


def _assert_own_table(prog):
    """The table `prog` holds, not one built on first use, equals the table
    built afresh from its declarations."""
    table, fresh = vars(prog)["table"], fg.Decls(prog.decls, prog.mode)
    for fact in TABLE_FACTS:
        assert getattr(table, fact) == getattr(fresh, fact), (fact, print_program(prog))


def test_programs_hold_the_table_of_their_declarations(shrink_runs):
    """`gen_program` hands each program the generator's table with the
    generated bodies, and `shrink` each body candidate its parent's table
    with the new body."""
    for cfg in _stream_configs():
        _assert_own_table(gen_program(cfg))
    bodies = 0
    for path, out in shrink_runs:
        failing = _same_reason(path[0])
        current = [path[0]]

        def check(cand, failing=failing, current=current):
            nonlocal bodies
            parent = current[0]
            if cand.main is parent.main and len(cand.decls) == len(parent.decls):
                _assert_own_table(cand)
                bodies += 1
            kept = failing(cand)
            if kept:
                current[0] = cand
            return kept

        assert shrink(path[0], check) == out
    assert bodies > 100


# -- one typing per node ---------------------------------------------------------

# No node relies on B.m, and removing it takes B out of J's implementers;
# the body of A.k and `main` each assert from I to J.
DOWNCAST_PROGRAM = """
package main
type A struct {}
type B struct {}
type I interface { n() A }
type J interface { m() A }
func (x A) n() A { return x }
func (x B) m() A { return A{} }
func (x B) n() A { return A{} }
func (x A) i(y B) I { return y }
func (x A) k(y I) J { return y.(J) }
func (x A) z() A { return x }
func main() { _ = A{}.i(B{}).(J) }
"""


def test_a_removal_retranslates_only_the_downcasts_it_changes():
    prog = parse_program(DOWNCAST_PROGRAM)
    res = translate_program(prog)
    parent = dict(res.tl_program.bindings)
    removed = {}
    for i, (cand, ok) in enumerate(_candidates(prog, res)):
        if not ok or len(cand.decls) == len(prog.decls):
            continue
        d = prog.decls[i]
        carried = gen._removed(prog, res, i).translation
        full = translate_program(cand)
        assert (carried.tl_program, carried.main_type) == (full.tl_program, full.main_type)
        changed = cand.table.implementers != {
            u: ts for u, ts in prog.table.implementers.items() if u in cand.table.implementers}
        kept = [n for n, lam in carried.tl_program.bindings if lam is parent[n]]
        removed[d.recv_type, d.name] = changed, kept, carried.tl_program.main is res.tl_program.main
    # Removing B.m drops B from J: A.k and `main` are translated again.
    changed, kept, main_kept = removed["B", "m"]
    assert changed and not main_kept
    assert kept == ["n_A", "n_B", "i_A", "z_A"]
    # Removing A.n drops A from I, which nothing asserts to; removing A.k or
    # A.z changes no implementers.  Each keeps every binding and `main`.
    for key, changes in [(("A", "n"), True), (("A", "k"), False), (("A", "z"), False)]:
        changed, kept, main_kept = removed[key]
        assert changed == changes and main_kept
        assert len(kept) == len(parent) - 1
    assert len(removed) == 4


def test_shrink_types_each_node_once(shrink_runs, monkeypatch):
    """`shrink` types each node of its input once, and a new body or `main`
    as a candidate, in each round that tries it: once accepted, it is not
    typed again.  Only a removal that changes an interface's implementers
    types a node anew, and only one that asserts to an interface."""
    runs = [(path[0], _same_reason(path[0]), out) for path, out in shrink_runs]
    typed, retyped = [], []
    infer = Translator.infer_expr
    removal = gen._removed

    def counting(self, env, e):
        typed.append(e)
        return infer(self, env, e)

    def removing(prog, res, i):
        start = len(typed)
        out = removal(prog, res, i)
        retyped.extend(typed[start:])
        del typed[start:]
        return out

    monkeypatch.setattr(Translator, "infer_expr", counting)
    monkeypatch.setattr(gen, "_removed", removing)
    for prog, failing, out in runs:
        start = len(typed)
        accepted = []  # (new body or `main`, typings before it was accepted)
        current = [prog]

        def check(cand):
            kept = failing(cand)
            if kept:
                old = current[0]
                if cand.main is not old.main:
                    accepted.append((cand.main, len(typed)))
                elif len(cand.decls) == len(old.decls):
                    d = next(d for d, o in zip(cand.decls, old.decls) if d is not o)
                    accepted.append((d.body, len(typed)))
                current[0] = cand
            return kept

        assert shrink(prog, check) == out
        run = typed[start:]
        nodes = [d.body for d in prog.decls if isinstance(d, fg.MethodDecl)] + [prog.main]
        assert all(a is b for a, b in zip(run, nodes))
        assert all(sum(e is n for e in run) == 1 for n in nodes)
        for node, at in accepted:
            assert any(e is node for e in typed[:at])
            assert not any(e is node for e in typed[at:])
        assert accepted
    assert all(any(type(x) is fg.Assert for x in fg.expr_nodes(e)) for e in retyped)
    assert 0 < len(retyped) < 10
