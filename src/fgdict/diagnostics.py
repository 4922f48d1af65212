"""Source spans and diagnostics shared by the parsers, checker and
translator, the token reader and operator table both parsers and both
printers are built on, and the bottom-up tree rebuild the substitutions and
value builders share."""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class SourceSpan:
    file: str = "<input>"
    start: int = 0
    end: int = 0
    line: int = 1
    column: int = 1

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start must not exceed end")

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


# Stable diagnostic codes, used by tests and the CLI JSON output.
SYNTAX = "syntax"
FG1_RECURSIVE_STRUCT = "fg1-recursive-struct"
FG2_DUP_FIELD = "fg2-dup-field"
FG3_DUP_SPEC = "fg3-dup-spec"
FG4_DUP_METHOD = "fg4-dup-method"
UNKNOWN_TYPE = "unknown-type"
DUP_TYPE = "dup-type"
DUP_PARAM = "dup-param"
EXT_NODE_IN_CORE = "ext-node-in-core"
UNKNOWN_VAR = "unknown-var"
UNKNOWN_FIELD = "unknown-field"
UNKNOWN_METHOD = "unknown-method"
ARITY_MISMATCH = "arity-mismatch"
NOT_A_SUBTYPE = "not-a-subtype"
NOT_A_STRUCT = "not-a-struct"
ASSERT_ON_STRUCT = "assert-on-struct"
PRIM_OP_TYPE = "prim-op-type"
DUP_BINDING = "dup-binding"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: SourceSpan = field(default_factory=SourceSpan)

    def __str__(self):
        return f"{self.span}: error: {self.message} [{self.code}]"


class FgError(Exception):
    """Raised for unrecoverable errors carrying one or more diagnostics."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, Diagnostic):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# Binary operators of FG and TL by precedence; the comparisons (== and <)
# do not chain.
PREC = {"||": 1, "&&": 2, "==": 3, "<": 3}
PREC_CMP = 3


def push_items(push, items, prec, sep):
    """Push (item, `prec`) pairs split by `sep` onto a printer's stack of
    work, so that they pop in order."""
    for i in range(len(items) - 1, -1, -1):
        push((items[i], prec))
        if i:
            push(sep)


def rebuild(root, children, build):
    """Rebuild a tree bottom-up from an explicit stack, so that trees of any
    depth rebuild.  `children(node)` gives the subtrees to rebuild first, or
    None for a leaf; `build(node, subs)` makes the new node from their
    results in order (`()` when there are none), with `subs` None for a
    leaf."""
    done = []  # rebuilt subtrees, in order
    todo = [(root, None)]  # (node, None) to visit; (node, subtrees) to build
    while todo:
        node, subs = todo.pop()
        if subs is None:
            subs = children(node)
            if subs:
                todo.append((node, subs))
                todo.extend((s, None) for s in reversed(subs))
                continue
        else:
            n = len(done) - len(subs)
            subs = done[n:]
            del done[n:]
        done.append(build(node, subs))
    return done[0]


class TokenReader:
    """The tokens of one source text and a cursor over them.

    `token_re` has one named group per token kind and must match at every
    offset; a match of its `bad` group is a lexical error, and `ws` matches
    are dropped.  A token is (kind, text, offset); the last is
    ("eof", "", len(text)).  Line and column are worked out only when a span
    is asked for.
    """

    def __init__(self, token_re, text, filename="<input>"):
        self.text = text
        self.filename = filename
        self.tokens = tokens = []
        for m in token_re.finditer(text):
            kind = m.lastgroup
            if kind != "ws":
                tokens.append((kind, m.group(), m.start()))
                if kind == "bad":
                    self.fail(f"unexpected character {m.group()!r}", tokens[-1])
        tokens.append(("eof", "", len(text)))
        self.i = 0
        self.cur = tokens[0]

    @cached_property
    def _line_starts(self):
        return [0] + [m.end() for m in re.finditer("\n", self.text)]

    def span(self, tok):
        kind, text, start = tok
        line = bisect.bisect_right(self._line_starts, start)
        column = start - self._line_starts[line - 1] + 1
        return SourceSpan(self.filename, start, start + len(text), line, column)

    def advance(self):
        tok = self.cur
        self.i += 1
        self.cur = self.tokens[self.i]
        return tok

    def at(self, text):
        return self.cur[1] == text  # the eof token's text is ""

    def accept(self, text):
        if self.cur[1] == text:
            self.advance()
            return True
        return False

    def expect(self, text):
        if self.cur[1] != text:
            self.fail_found(f"expected {text!r}")
        return self.advance()

    def seq(self, close, item):
        """The results of `item()` until `close`, split by commas; consumes
        `close`.  A comma may follow the last item."""
        items = []
        while not self.at(close):
            items.append(item())
            if not self.accept(","):
                break
        self.expect(close)
        return items

    def fail(self, msg, tok=None):
        """Raise a syntax error at `tok`, by default the current token."""
        raise FgError(Diagnostic(SYNTAX, msg, self.span(tok or self.cur)))

    def fail_found(self, msg):
        self.fail(f"{msg}, found {self.cur[1]!r}")
