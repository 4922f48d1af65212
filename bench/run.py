"""fgdict benchmark.

    python3 bench/run.py --workload {fuzz,ladder,compile,shrink} --seed N
                         --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from src/.
One process, one thread, one client in a closed loop: the next operation
starts when the previous one has finished, so nothing ever queues and
waiting time is zero by construction (it is not reported).

--trace 0 measures the end-to-end metrics for S seconds.  --trace 1 runs the
same rounds untraced for S/2 seconds and then traced, and reports the
per-layer metrics plus the tracing overhead; spans are written to
.bench_out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Operation times are CPU time of this process (time.process_time), not wall
time: on a shared host the process also waits while other processes run.
On a 2-vCPU KVM guest with two busy processes started beside it, wall times
rose by 85 % and CPU times by 14 %.  fgdict runs in this one process and
thread and does no I/O inside an operation, so its CPU time is its latency
on an idle machine.  The host's speed still changes from second to second,
so each round's CPU times are scaled by PROBE_REF_S / (median CPU time of
the probe runs just before and just after the round); the probe shares no
code with fgdict, so a change to fgdict cannot move it.  The unscaled CPU
and wall times are printed as `cpu.*` and `wall.*` report lines.  setup_s
is a reference time too: the CPU time of the child interpreter it starts
plus the workload's own set-up, scaled by the probe runs around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_SECONDS = 3.0  # set up again while less than this has passed
SHOWN_FAILURES = 5
PROBE_REF_S = 1e-3  # a probe run takes this long at reference speed
PROBES = 5  # probe runs before each round and after the last
PROBE_TREES = 10
PROBE_DEPTH = 6  # 127 nodes per tree

SPAN_NAMES = (
    "gen.gen_program", "gen.shrink", "fg_parser.parse_program",
    "fg_parser.print_program", "fg_ast.check_wellformed",
    "translate.translate_program", "tl_ast.print_program", "tl_ast.parse_program",
    "tl_ast.validate_program", "fg_interp.fg_eval", "tl_interp.tl_eval",
    "relate.diff_run", "relate.values_related",
)
# Counters reported as totals over round 0, a fixed input set per seed.
ROUND0_COUNTS = (
    ("gen.gen_program.calls", "count"),
    ("gen.shrink.candidates", "count"),
    ("translate.translate_program.calls", "count"),
    ("translate.td_rules", "count"),
    ("translate.helpers", "count"),
    ("translate.diagnostics", "count"),
    ("tl_ast.print_program.bytes", "B"),
    ("tl_ast.validate_program.problems", "count"),
    ("fg_interp.steps", "count"),
    ("tl_interp.steps", "count"),
    ("gen.shrink.out_nodes", "nodes"),
)


class Phase:
    """Outcome of running whole rounds of operations."""

    def __init__(self):
        self.latencies = []  # CPU seconds per operation, in order
        self.wall = []  # wall seconds per operation, in order
        self.probe_times = []
        self.tags = []
        self.failed = 0
        self.rounds = 0
        self.round_sizes = []  # operations per round
        self.peak_kib = 0  # peak RSS at the end of round 0

    def op_scales(self):
        """Reference seconds per CPU second for each operation: the scale of
        its round, from the probe runs just before and just after it."""
        out = []
        for r, n in enumerate(self.round_sizes):
            out += [scale(self.probe_times[PROBES * r:PROBES * (r + 2)])] * n
        return out

    def ref_latencies(self):
        return [t * k for t, k in zip(self.latencies, self.op_scales())]


def ratio(a, b):
    return a / b if b else 0.0


class _Node:
    __slots__ = ("op", "kids", "name")

    def __init__(self, op, kids, name):
        self.op, self.kids, self.name = op, kids, name


def _build(depth, i):
    if depth == 0:
        return _Node("var", (), f"x{i % 13}")
    return _Node("add" if i % 3 else "mul",
                 (_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1)), "")


def _evaluate(node, env):
    if node.op == "var":
        return env[node.name]
    a, b = _evaluate(node.kids[0], env), _evaluate(node.kids[1], env)
    return (a + b if node.op == "add" else a * b) & 0xFFFF


_PROBE_ENV = {f"x{i}": i for i in range(13)}


def probe_s():
    """CPU time of a fixed pure-Python task shaped like fgdict's work:
    build small trees of slotted objects and evaluate them recursively.
    The collector is off while it runs, so the size of fgdict's heap cannot
    change the probe's time.  Across ten fresh processes it tracked fgdict
    about twice as closely as a tuple-and-dict loop did."""
    enabled = gc.isenabled()
    gc.disable()
    start = process_time()
    for _ in range(PROBE_TREES):
        _evaluate(_build(PROBE_DEPTH, 1), _PROBE_ENV)
    spent = process_time() - start
    if enabled:
        gc.enable()
    return spent


def probes():
    return [probe_s() for _ in range(PROBES)]


def scale(samples):
    """Reference seconds per CPU second, from probe times."""
    return PROBE_REF_S / statistics.median(samples)


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def start_and_import():
    """CPU and wall time of a fresh interpreter that imports the package
    and exits."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cpu, wall = children_cpu_s(), perf_counter()
    subprocess.run([sys.executable, "-c", "import fgdict"], cwd=ROOT, env=env,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
    return children_cpu_s() - cpu, perf_counter() - wall


def set_up(wl):
    """Set up at least SETUP_MIN_REPEATS times, and again while less than
    SETUP_SECONDS have passed, up to SETUP_MAX_REPEATS; returns the median
    reference, CPU and wall seconds, and the problems found.  Each set-up is
    a fresh interpreter start plus the workload's inputs; its CPU time is
    scaled by the probe runs just before and just after it."""
    ref, cpu, wall, problems = [], [], [], []
    began = perf_counter()
    before = probes()
    for i in range(SETUP_MAX_REPEATS):
        if i >= SETUP_MIN_REPEATS and perf_counter() - began >= SETUP_SECONDS:
            break
        child_cpu, child_wall = start_and_import()
        start_cpu, start_wall = process_time(), perf_counter()
        inputs, found = wl.prepare()
        cpu.append(child_cpu + process_time() - start_cpu)
        wall.append(child_wall + perf_counter() - start_wall)
        after = probes()
        ref.append(cpu[-1] * scale(before + after))
        before = after
        if i == 0:
            wl.inputs, problems = inputs, found
        elif inputs != wl.inputs:
            problems.append("set-up is not deterministic")
    return ([statistics.median(ref), statistics.median(cpu), statistics.median(wall),
             len(ref)], problems)


def last_line(exc_text):
    return exc_text.strip().splitlines()[-1]


def run_op(wl, op):
    """Run one operation; returns (CPU start, CPU end, wall seconds, output,
    failure or None)."""
    wall, start = perf_counter(), process_time()
    try:
        out = wl.run(op)
        error = None
    except Exception:  # the loop must go on; the failure is counted
        out, error = None, last_line(traceback.format_exc())
    end = process_time()
    return start, end, perf_counter() - wall, out, error


def measure(wl, seconds=None, rounds=None, rec=None):
    """Run whole rounds until `seconds` have passed (at least one round), or
    exactly `rounds` rounds."""
    phase = Phase()
    began = perf_counter()
    while (phase.rounds < rounds if rounds is not None
           else phase.rounds == 0 or perf_counter() - began < seconds):
        if rec is not None:
            rec.round = phase.rounds
        phase.probe_times += probes()
        for op in wl.rounds(phase.rounds):
            tag = wl.tag(op)
            if rec is not None:
                rec.begin_op(len(phase.latencies), tag)
            start, end, wall, out, error = run_op(wl, op)
            if rec is not None:
                rec.end_op(start, end)
            if error is None:
                try:
                    error = wl.check(op, out)
                except Exception:  # a check that crashes fails the operation
                    error = last_line(traceback.format_exc())
            if error is not None:
                phase.failed += 1
                if phase.failed <= SHOWN_FAILURES:
                    print(f"failed {op}: {error}", file=sys.stderr)
            phase.latencies.append(end - start)
            phase.wall.append(wall)
            phase.tags.append(tag)
        if phase.rounds == 0:
            phase.peak_kib = peak_rss_kib()
        phase.round_sizes.append(len(phase.latencies) - sum(phase.round_sizes))
        phase.rounds += 1
    phase.probe_times += probes()
    return phase


def tag_medians(phase):
    by_tag = {}
    for tag, t in zip(phase.tags, phase.ref_latencies()):
        by_tag.setdefault(tag, []).append(t)
    return {tag: statistics.median(ts) for tag, ts in by_tag.items()}


def split_rounds(lat, round_sizes):
    out, i = [], 0
    for n in round_sizes:
        out.append(lat[i:i + n])
        i += n
    return out


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def fast_quartile(values, rate=False):
    """The quartile of `values` on the fast side: the lower quartile of
    times, or the upper quartile of rates."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2 if rate else 0]


def timings(lat, round_sizes):
    """Each metric is the fast quartile over the run's rounds of that
    round's throughput, median or 90th percentile.  A round is one pass
    over the input set, or on `fuzz` 400 fresh programs.  A shared host
    only ever adds time, and it changes speed from second to second; the
    fast quartile leaves out the rounds it slowed most.  Over eight 25 s
    runs each of `compile` and `shrink`, it halved the quartile spread of
    the median over rounds."""
    rounds = split_rounds(lat, round_sizes)
    return {
        "ops_per_s": (fast_quartile((len(r) / sum(r) for r in rounds), rate=True), "ops/s"),
        "op_ms_p50": (fast_quartile(statistics.median(r) for r in rounds) * 1e3, "ms"),
        "op_ms_p90": (fast_quartile(p90(r) for r in rounds) * 1e3, "ms"),
    }


def peak_rss_kib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(phase, setup_s):
    """peak_rss_mb is taken when round 0 ends: every run completes that
    round, while later rounds depend on speed, and on `fuzz` each further
    round draws new programs that can raise the peak."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (phase.peak_kib / 1024, "MiB"),
        **timings(phase.ref_latencies(), phase.round_sizes),
    }


def untraced_extras(wl, phase, setup_cpu_s, setup_wall_s, setups):
    """What the end-to-end list leaves out: the workload's own results, the
    99th percentile where ten samples lie beyond it, failures, the peak RSS
    of the whole run, and the unscaled wall times."""
    lat = phase.ref_latencies()
    extra = dict(wl.report(tag_medians(phase)))
    if len(lat) >= 1000:
        extra["op_ms_p99"] = (statistics.quantiles(lat, n=100)[98] * 1e3, "ms")
    extra["failed_share"] = (ratio(phase.failed, len(lat)), "ratio")
    extra["ops"] = (len(lat), "count")
    extra["rounds"] = (phase.rounds, "count")
    extra["peak_rss_mb.run"] = (peak_rss_kib() / 1024, "MiB")
    extra.update({f"cpu.{k}": v for k, v in timings(phase.latencies, phase.round_sizes).items()})
    extra.update({f"wall.{k}": v for k, v in timings(phase.wall, phase.round_sizes).items()})
    extra["cpu.setup_s"] = (setup_cpu_s, "s")
    extra["wall.setup_s"] = (setup_wall_s, "s")
    extra["setups"] = (setups, "count")
    extra["probe_ms"] = (statistics.median(phase.probe_times) * 1e3, "ms")
    return extra


def overhead(traced, untraced):
    """Traced minus untraced timings over the same rounds."""
    out = {}
    before = timings(untraced.ref_latencies(), untraced.round_sizes)
    after = timings(traced.ref_latencies(), traced.round_sizes)
    for name, (value, unit) in before.items():
        out[f"untraced.{name}"] = (value, unit)
        out[f"traced.{name}"] = after[name]
        out[f"overhead.{name}"] = (after[name][0] - value, unit)
    return out


def per_layer(rec, traced, untraced, rungs):
    ops = len(traced.latencies)
    by_name, by_tag = rec.self_times(dict(enumerate(traced.tags)), traced.op_scales())
    first, total = rec.first, rec.counts
    m = {f"{name}.self_s": (by_name[name] / ops, "s") for name in SPAN_NAMES}
    m["op.self_s"] = (by_name["op"] / ops, "s")
    m["op.traced_s"] = (sum(traced.ref_latencies()) / ops, "s")
    for key, unit in ROUND0_COUNTS:
        m[key] = (first[key], unit)
    m["gen.shrink.valid_ratio"] = (
        ratio(first["gen.shrink.predicate_calls"], first["gen.shrink.candidates"]), "ratio")
    m["gen.shrink.accept_ratio"] = (
        ratio(first["gen.shrink.accepts"], first["gen.shrink.predicate_calls"]), "ratio")
    m["fg_parser.parse_program.bytes_per_s"] = (
        ratio(total["fg_parser.parse_program.bytes"], by_name["fg_parser.parse_program"]),
        "B/s")
    m["tl_interp.tl_fg_step_ratio"] = (
        ratio(first["tl_interp.steps"], first["fg_interp.steps"]), "ratio")
    for side, fn in (("fg_interp", "fg_eval"), ("tl_interp", "tl_eval")):
        steps, span = f"{side}.steps", f"{side}.{fn}"
        m[f"{side}.steps_per_s"] = (ratio(total[steps], by_name[span]), "steps/s")
        for rung in rungs:
            m[f"{side}.steps_per_s.{rung}"] = (
                ratio(rec.tag_counts[rung, steps], by_tag[rung, span]), "steps/s")
    m["trace.overhead_ms_per_op"] = (
        (statistics.mean(traced.ref_latencies())
         - statistics.mean(untraced.ref_latencies())) * 1e3, "ms")
    return m


def print_report(metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "fgdict" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    return run(wl, args.seconds, args.trace, tracing, workloads.RUNGS)


def run(wl, seconds, trace, tracing, rungs):
    (setup_s, setup_cpu_s, setup_wall_s, setups), problems = set_up(wl)
    if trace:
        untraced = measure(wl, seconds=seconds / 2)
        rec = tracing.Recorder()
        wl.rec = rec
        rec.install()
        try:
            traced = measure(wl, rounds=untraced.rounds, rec=rec)
        finally:
            rec.uninstall()
            wl.rec = None
        phases = [untraced, traced]
        metrics = per_layer(rec, traced, untraced, rungs)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        rec.write(out_dir / f"spans-{wl.name}-seed{wl.seed}.jsonl")
        print_report(overhead(traced, untraced))
    else:
        phase = measure(wl, seconds=seconds)
        phases = [phase]
        metrics = end_to_end(phase, setup_s)
        print_report(untraced_extras(wl, phase, setup_cpu_s, setup_wall_s, setups))
    problems += wl.finish()
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print_report(metrics)
    print("waiting_s: 0 by construction (closed loop, one client)")

    attempted = sum(len(ph.latencies) for ph in phases) + len(problems)
    failed = sum(ph.failed for ph in phases) + len(problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
