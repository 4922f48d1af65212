"""Spans and counters for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: the
public functions of each layer are wrapped in the module where their callers
look them up, and the originals are put back when tracing ends.  Nothing in
the package changes.

A span is (id, parent id, operation id, name, start, end), with start and
end in process CPU time, the clock the harness times operations with.  Spans stay in
memory and are written out once, after the run.  A layer's self time is its
span's duration minus the durations of its direct child spans; the root span
of every operation is named ``op``, so the self times of all names add up to
the traced operation time.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import process_time

from fgdict import fg_ast, fg_interp, fg_parser, gen, relate, tl_ast, tl_interp, translate


def _bytes_parsed(rec, args, kwargs, result):
    rec.add("fg_parser.parse_program.bytes", len(args[0]))


def _bytes_printed(rec, args, kwargs, result):
    rec.add("tl_ast.print_program.bytes", len(result.encode()))


def _candidate(rec, args, kwargs, result):
    if rec.active["gen.shrink"]:
        rec.add("gen.shrink.candidates")


def _translation(rec, args, kwargs, result):
    rec.add("translate.translate_program.calls")
    rec.add("translate.td_rules", sum(result.rule_counts.values()))
    rec.add("translate.diagnostics", len(result.diagnostics))
    if result.ok:
        methods = sum(isinstance(d, fg_ast.MethodDecl) for d in args[0].decls)
        rec.add("translate.helpers", len(result.tl_program.bindings) - methods)


def _problems(rec, args, kwargs, result):
    rec.add("tl_ast.validate_program.problems", len(result))


def _gen_call(rec, args, kwargs, result):
    rec.add("gen.gen_program.calls")


def _fg_steps(rec, args, kwargs, result):
    rec.add("fg_interp.steps", result.steps)


def _tl_steps(rec, args, kwargs, result):
    rec.add("tl_interp.steps", result.steps)


# (module, attribute, span name, counter hook, outermost span only).
# relate and gen import translate_program by name, and relate imports
# print_program as print_fg, so those bindings are wrapped where they live.
BOUNDARIES = (
    (gen, "gen_program", "gen.gen_program", _gen_call, False),
    (gen, "shrink", "gen.shrink", None, False),
    (fg_parser, "parse_program", "fg_parser.parse_program", _bytes_parsed, False),
    (relate, "print_fg", "fg_parser.print_program", None, False),
    (fg_ast, "check_wellformed", "fg_ast.check_wellformed", _candidate, False),
    (translate, "translate_program", "translate.translate_program", _translation, False),
    (relate, "translate_program", "translate.translate_program", _translation, False),
    (gen, "translate_program", "translate.translate_program", _translation, False),
    (tl_ast, "print_program", "tl_ast.print_program", _bytes_printed, False),
    (tl_ast, "parse_program", "tl_ast.parse_program", None, False),
    (tl_ast, "validate_program", "tl_ast.validate_program", _problems, False),
    (fg_interp, "fg_eval", "fg_interp.fg_eval", _fg_steps, False),
    (tl_interp, "tl_eval", "tl_interp.tl_eval", _tl_steps, False),
    (relate, "diff_run", "relate.diff_run", None, False),
    (relate, "values_related", "relate.values_related", None, True),
)


class Recorder:
    """Collects spans and counters while installed; records nothing outside
    an operation (set-up and output checks are not traced)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.op = None
        self.active = defaultdict(int)
        self.round = 0
        self.counts = defaultdict(int)  # whole traced phase
        self.first = defaultdict(int)  # round 0 only
        self.tag_counts = defaultdict(int)  # (tag, counter), whole phase
        self.tag = None
        self._saved = []

    def add(self, key, n=1):
        self.counts[key] += n
        if self.round == 0:
            self.first[key] += n
        self.tag_counts[self.tag, key] += n

    def _wrap(self, fn, name, hook, outermost):
        rec = self

        def traced(*args, **kwargs):
            if rec.op is None or (outermost and rec.active[name]):
                return fn(*args, **kwargs)
            sid = rec.next_id
            rec.next_id += 1
            parent = rec.stack[-1]
            rec.stack.append(sid)
            rec.active[name] += 1
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                rec.active[name] -= 1
                rec.stack.pop()
                rec.spans.append((sid, parent, rec.op, name, start, end))
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attr, name, hook, outermost in BOUNDARIES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook, outermost))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin_op(self, op, tag):
        self.op, self.tag = op, tag
        self.stack.append(self.next_id)
        self.next_id += 1

    def end_op(self, start, end):
        """Close the operation's root span; it must cover every span
        recorded since begin_op."""
        self.spans.append((self.stack.pop(), None, self.op, "op", start, end))
        self.op = None

    def self_times(self, tags, scales):
        """Self time summed per span name and per (tag, name), where `tags`
        maps an operation id to its tag and `scales[op]` converts that
        operation's CPU seconds."""
        covered = defaultdict(float)
        for _sid, parent, _op, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        by_name = defaultdict(float)
        by_tag = defaultdict(float)
        for sid, _parent, op, name, start, end in self.spans:
            own = (end - start - covered[sid]) * scales[op]
            by_name[name] += own
            by_tag[tags[op], name] += own
        return by_name, by_tag

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in sorted(self.spans):
                f.write(json.dumps(span) + "\n")
