"""Source spans and diagnostics shared by the parsers, checker and
translator, the token reader and operator table both parsers and both
printers are built on, and the bottom-up tree rebuild the substitutions and
value builders share."""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate


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


# The last token of every text.
EOF = ""

INT_MAX = 2 ** 63 - 1  # the largest value of Go's int


def lexicon(comment, **kinds):
    """The LEX, CHUNKS and KINDS patterns of a TokenReader, for comments
    that `comment` matches and one pattern per token kind, tried in order.
    Any other character is a token of kind `bad`, and EOF is of kind `eof`.
    A match of LEX or CHUNKS is the whitespace and comments before the next
    token and that token, or nothing at the end of the text.  LEX captures
    the token, so its `findall` gives the tokens and then EOF; CHUNKS does
    not, so the lengths of its matches add up to the end of each token.
    KINDS names the kind of a token."""
    alts = "|".join(kinds.values())

    def tokens(group):
        return re.compile(rf"\s*(?:(?:{comment})\s*)*({group}{alts}|.)?", re.DOTALL)

    kind = re.compile("|".join(f"(?P<{k}>{p})" for k, p in kinds.items())
                      + r"|(?P<bad>.)|(?P<eof>\Z)", re.DOTALL)
    return tokens(""), tokens("?:"), kind


class TokenReader:
    """The tokens of one source text and a cursor over them.

    A token is its string, read with the patterns a reader's `lexicon`
    makes: `tokens` lists them, ending with EOF, and `kinds` gives each
    distinct one its kind.  A token is named by its index.  Offsets, lines
    and columns are worked out only when a span is first asked for.
    """

    LEX = CHUNKS = KINDS = None

    def __init__(self, text, filename="<input>"):
        self.text = text
        self.filename = filename
        self.tokens = tokens = self.LEX.findall(text)
        del tokens[tokens.index(EOF) + 1:]
        match = self.KINDS.match
        self.kinds = kinds = {tok: match(tok).lastgroup for tok in set(tokens)}
        bad = [tok for tok, kind in kinds.items() if kind == "bad"]
        if bad:
            i = min(map(tokens.index, bad))
            self.fail(f"unexpected character {tokens[i]!r}", i)
        self.i = 0
        self.cur = tokens[0]

    @cached_property
    def _ends(self):
        return list(accumulate(map(len, self.CHUNKS.findall(self.text))))

    @cached_property
    def _line_starts(self):
        return [0] + [m.end() for m in re.finditer("\n", self.text)]

    def span(self, i):
        end = self._ends[i]
        start = end - len(self.tokens[i])
        starts = self._line_starts
        line = bisect_right(starts, start)
        return SourceSpan(self.filename, start, end, line, start - starts[line - 1] + 1)

    def number(self, i):
        """The value of the integer literal at token `i`, which must not
        exceed INT_MAX."""
        digits = self.tokens[i].lstrip("0") or "0"
        if len(digits) > 19 or int(digits) > INT_MAX:  # INT_MAX has 19 digits
            self.fail("integer literal out of range", i)
        return int(digits)

    def advance(self):
        """Move past the current token; returns its index."""
        i = self.i
        self.i += 1
        self.cur = self.tokens[self.i]
        return i

    def at(self, text):
        return self.cur == text

    def accept(self, text):
        if self.cur == text:
            self.advance()
            return True
        return False

    def expect_at(self, i, text):
        """The index after token `i`, which must be `text`."""
        if self.tokens[i] != text:
            self.fail_found(f"expected {text!r}", i)
        return i + 1

    def expect(self, text):
        self.expect_at(self.i, text)
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

    def fail(self, msg, i=None):
        """Raise a syntax error at token `i`, by default the current one."""
        raise FgError(Diagnostic(SYNTAX, msg, self.span(self.i if i is None else i)))

    def fail_found(self, msg, i):
        """Raise a syntax error at token `i` that names it."""
        self.fail(f"{msg}, found {self.tokens[i]!r}", i)
