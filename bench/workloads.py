"""The four workloads.

Each operation makes the same calls, in the same order, as the CLI command
it stands for (`fuzz --json`, `diff FILE`, `compile` followed by loading the
TL file, and the shrinker that keeps a failure).  Calls go through module
attributes, so the traced run can wrap them.

A workload is a sequence of rounds.  A round is a fixed list of operations
for a given seed and round number; the harness runs whole rounds, so every
run executes complete rounds and per-round counts repeat exactly.  Fixed
input sets have 7, 33 and 25 members: with an odd count, a round's median is
the time of one input, not the mean of two.

`fuzz` draws fresh generator seeds in every round.  The other workloads run
a fixed input set whose order the seed shuffles.  Generated programs vary so
much in size that, in a resampling test, the mean operation time over 120
seed-drawn compile inputs had a quartile spread of 17 % across draws, on top
of the machine's own run-to-run noise.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fgdict import cli, fg_ast, fg_parser, gen, relate, tl_ast, translate
from fgdict.relate import (
    AGREE, BOTH_STUCK, DEFAULT_EVAL_FUEL, DEFAULT_RELATION_FUEL,
)

HERE = Path(__file__).resolve().parent
LADDER_DIR = HERE / "ladder"
EXPECTED_FILE = HERE / "expected.json"

FUEL = DEFAULT_EVAL_FUEL
REL_FUEL = DEFAULT_RELATION_FUEL


def _shuffled(items, seed, r):
    items = list(items)
    random.Random(f"{seed}:{r}").shuffle(items)
    return items


def _expected():
    with open(EXPECTED_FILE, encoding="utf-8") as f:
        return json.load(f)


def program_nodes(prog):
    """Declarations plus expression nodes: the size the shrinker reduces."""
    return len(prog.decls) + sum(1 for _ in fg_ast.program_exprs(prog))


def verdict_line(verdict):
    """The line `fgdict diff FILE` prints for a verdict."""
    line = verdict.kind
    if verdict.kind == AGREE:
        line += f": {fg_parser.print_expr(verdict.fg_value)}"
    elif verdict.kind == BOTH_STUCK:
        line += f": fg {verdict.fg_reason}, tl {verdict.tl_reason}"
    elif verdict.detail:
        line += f": {verdict.detail}"
    return line + f" (fg {verdict.fg_steps} steps, tl {verdict.tl_steps} steps)"


def stream_digest(lines):
    """sha256 of the (seed, verdict, fg-steps, tl-steps) stream of
    `fuzz --json` records, in output order."""
    h = hashlib.sha256()
    for line in lines:
        rec = json.loads(line)
        h.update(f"{rec['seed']} {rec['verdict']} {rec['fg-steps']} {rec['tl-steps']}\n"
                 .encode())
    return h.hexdigest()


def cli_fuzz_lines(seed, count, mode):
    """Records printed by `fgdict fuzz --json [--ext]`."""
    argv = ["fuzz", "--json", "--seed", str(seed), "--count", str(count)]
    if mode == fg_ast.EXT:
        argv.append("--ext")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli.cli_dispatch(argv)
    return out.getvalue().splitlines()


class Workload:
    """Interface the harness drives.  `prepare` builds the inputs once per
    set-up and returns (inputs, problems); `rounds(r)` lists the operations
    of round r; `run` performs one operation and `check` returns None or a
    description of what is wrong with its output."""

    name = None
    rec = None  # the Recorder while the traced phase runs

    def __init__(self, seed):
        self.seed = seed
        self.inputs = None

    def prepare(self):
        return None, []

    def tag(self, op):
        return self.name

    def finish(self):
        """Checks over the whole output stream, after the timed phases."""
        return []

    def report(self, tag_medians):
        """Workload-specific results: {name: (value, unit)}."""
        return {}

    def count(self, key, n=1):
        if self.rec is not None:
            self.rec.add(key, n)


class Fuzz(Workload):
    """`fgdict fuzz --json` then `fgdict fuzz --json --ext` over a block of
    default-config seeds per round; each round takes the next block, so the
    run covers generator seeds [S, S+N) for benchmark seed S.

    Runs with nearby seeds therefore share most of their programs.  That is
    what keeps `fuzz` steady: one default-config program in several
    thousand takes over a second, and five 20 s runs that each drew their
    own programs had a quartile spread of 0.13 in ops/s from the program
    mix alone."""

    name = "fuzz"

    def __init__(self, seed, block=200):
        super().__init__(seed)
        self.block = block
        self.base = seed
        self.first = {}  # (mode, seed) -> JSON line, round 0

    def rounds(self, r):
        lo = self.base + r * self.block
        return [(r, mode, s) for mode in (fg_ast.CORE, fg_ast.EXT)
                for s in range(lo, lo + self.block)]

    def run(self, op):
        _r, mode, seed = op
        prog = gen.gen_program(gen.GenConfig(seed=seed, mode=mode))
        verdict = relate.diff_run(prog, fuel=FUEL, rel_fuel=REL_FUEL)
        return verdict, json.dumps(relate.verdict_json(prog, verdict, FUEL, REL_FUEL,
                                                       seed=seed))

    def check(self, op, out):
        r, mode, seed = op
        verdict, line = out
        if r == 0:
            self.first[mode, seed] = line
        if verdict.kind not in (AGREE, BOTH_STUCK):
            return f"{verdict.kind}: {verdict.detail}"
        return None

    def finish(self):
        problems = []
        mine = [self.first.get((mode, s), "") for mode in (fg_ast.CORE, fg_ast.EXT)
                for s in range(self.base, self.base + self.block)]
        cli_lines = (cli_fuzz_lines(self.base, self.block, fg_ast.CORE)
                     + cli_fuzz_lines(self.base, self.block, fg_ast.EXT))
        if mine != cli_lines:
            problems.append("round 0 records differ from `fgdict fuzz --json` output")
        expected = _expected()["fuzz"]
        if (self.seed, self.block) == (expected["seed"], expected["block"]):
            digest = stream_digest(mine)
            if digest != expected["sha256"]:
                problems.append(f"fuzz stream digest {digest} != recorded "
                                f"{expected['sha256']}")
        return problems


RUNGS = ("add10", "add20", "add40", "add80", "mul4", "mul8", "mul12")


def numeral(k):
    return "S{" * k + "Z{}" + "}" * k


def rung_result(rung):
    """k such that the rung evaluates to S^k(Z): 2n for add, n*n for mul."""
    op, n = rung[:3], int(rung[3:])
    return 2 * n if op == "add" else n * n


class Ladder(Workload):
    """`fgdict diff FILE` on Peano add/mul programs of growing size."""

    name = "ladder"

    def __init__(self, seed, rungs=RUNGS):
        super().__init__(seed)
        self.rungs = rungs
        self.steps = _expected()["ladder"]

    def rounds(self, r):
        return [(r, rung) for rung in _shuffled(self.rungs, self.seed, r)]

    def tag(self, op):
        return op[1]

    def run(self, op):
        path = LADDER_DIR / f"{op[1]}.fg"
        with open(path, encoding="utf-8") as f:
            text = f.read()
        prog = fg_parser.parse_program(text, mode=fg_ast.CORE, filename=str(path))
        verdict = relate.diff_run(prog, fuel=FUEL, rel_fuel=REL_FUEL)
        return verdict, verdict_line(verdict)

    def check(self, op, out):
        rung = op[1]
        verdict, _line = out
        if verdict.kind != AGREE:
            return f"{verdict.kind}: {verdict.detail}"
        if fg_parser.print_expr(verdict.fg_value) != numeral(rung_result(rung)):
            return f"FG value is not S^{rung_result(rung)}(Z)"
        if [verdict.fg_steps, verdict.tl_steps] != self.steps[rung]:
            return (f"steps fg {verdict.fg_steps}, tl {verdict.tl_steps}; "
                    f"recorded {self.steps[rung]}")
        return None

    def report(self, tag_medians):
        logs = [math.log(tag_medians[rung]) for rung in self.rungs]
        return {"rung_s_geomean": (math.exp(sum(logs) / len(logs)), "s")}


COMPILE_CONFIG = dict(max_structs=16, max_ifaces=8, max_methods_per_iface=3,
                      max_fields=3, expr_depth=4)


class Compile(Workload):
    """`fgdict compile FILE [--hoist-helpers]`, then loading the TL output
    as `fgdict run-tl` does, on larger generated programs.  Programs
    alternate core and ext mode, and every other pair is compiled with
    hoisted helpers."""

    name = "compile"

    def __init__(self, seed, programs=33):
        super().__init__(seed)
        self.programs = programs
        self.tl_bytes = {}  # op -> emitted bytes, round 0

    def prepare(self):
        sources, problems = [], []
        for i in range(self.programs):
            mode = fg_ast.CORE if i % 2 == 0 else fg_ast.EXT
            try:
                prog = gen.gen_program(gen.GenConfig(seed=i, mode=mode, **COMPILE_CONFIG))
                sources.append((f"gen-{i}.fg", mode, fg_parser.print_program(prog)))
            except Exception as e:  # a generator crash is a failed input
                problems.append(f"generating program {i}: {e!r}")
        return sources, problems

    def rounds(self, r):
        ops = [(r, i, i // 2 % 2 == 1) for i in range(len(self.inputs))]
        return _shuffled(ops, self.seed, r)

    def run(self, op):
        _r, i, hoist = op
        filename, mode, text = self.inputs[i]
        prog = fg_parser.parse_program(text, mode=mode, filename=filename)
        fg_ast.require_wellformed(prog)
        res = translate.require_translation(prog, hoist_helpers=hoist)
        tl_text = tl_ast.print_program(res.tl_program)
        loaded = tl_ast.parse_program(tl_text)
        return tl_text, loaded, tl_ast.validate_program(loaded)

    def check(self, op, out):
        tl_text, loaded, problems = out
        if op[0] == 0:
            self.tl_bytes[op] = len(tl_text.encode())
        if problems:
            return "validate_program: " + "; ".join(problems[:3])
        if tl_ast.print_program(loaded) != tl_text:
            return "TL print -> parse -> print is not byte-identical"
        return None

    def report(self, tag_medians):
        return {"tl_bytes": (sum(self.tl_bytes.values()), "bytes")}


class Shrink(Workload):
    """`gen.shrink` on the first both-stuck programs of the default
    generator, keeping "both sides stuck with the same FG reason"."""

    name = "shrink"
    SCAN_LIMIT = 100  # seeds scanned per witness before giving up

    def __init__(self, seed, witnesses=25):
        super().__init__(seed)
        self.witnesses = witnesses
        self.out_nodes = {}  # op -> nodes of the minimised program, round 0

    def prepare(self):
        found, problems = [], []
        for s in range(self.witnesses * self.SCAN_LIMIT):
            if len(found) == self.witnesses:
                break
            try:
                prog = gen.gen_program(gen.GenConfig(seed=s))
                verdict = relate.diff_run(prog)
            except Exception as e:  # a crash is a failed input, not a skip
                problems.append(f"seed {s}: {e!r}")
                continue
            if verdict.kind == BOTH_STUCK:
                found.append((s, prog, verdict.fg_reason))
            elif verdict.kind != AGREE:
                problems.append(f"seed {s}: {verdict.kind}")
        if len(found) < self.witnesses:
            problems.append(f"found {len(found)} of {self.witnesses} both-stuck programs")
        return found, problems

    def rounds(self, r):
        return _shuffled([(r, i) for i in range(len(self.inputs))], self.seed, r)

    def run(self, op):
        _seed, prog, reason = self.inputs[op[1]]

        def still_failing(cand):
            verdict = relate.diff_run(cand)
            kept = verdict.kind == BOTH_STUCK and verdict.fg_reason == reason
            self.count("gen.shrink.predicate_calls")
            if kept:
                self.count("gen.shrink.accepts")
            return kept

        return gen.shrink(prog, still_failing)

    def check(self, op, out):
        _seed, prog, reason = self.inputs[op[1]]
        if fg_ast.check_wellformed(out) or not translate.translate_program(out).ok:
            return "minimised program is ill-formed or ill-typed"
        verdict = relate.diff_run(out)
        if verdict.kind != BOTH_STUCK or verdict.fg_reason != reason:
            return f"minimised program gives {verdict.kind} {verdict.fg_reason}, not {reason}"
        nodes = program_nodes(out)
        if nodes > program_nodes(prog):
            return f"minimised program grew to {nodes} nodes"
        self.count("gen.shrink.out_nodes", nodes)
        if op[0] == 0:
            self.out_nodes[op] = nodes
        return None

    def report(self, tag_medians):
        return {"shrunk_nodes": (sum(self.out_nodes.values()), "nodes")}


WORKLOADS = {w.name: w for w in (Fuzz, Ladder, Compile, Shrink)}
