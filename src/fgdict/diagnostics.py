"""Source spans and diagnostics shared by the parsers, checker and
translator, the token reader and operator table both parsers and both
printers are built on, and the bottom-up tree rebuild the substitutions and
value builders share."""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate


@dataclass(frozen=True)
class SourceSpan:
    """Where a token is in a file: its offsets and the line and column of
    its first character.  `TokenReader.span` makes one that holds only its
    reader and token index and works the fields out when one is first read;
    so the fields have no class-level defaults, which would be read
    instead."""

    file: str
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start must not exceed end")

    def __getattr__(self, name):
        # Reached only for an attribute the span does not hold: a field of
        # a span not yet worked out, or a name no span has.
        at = self.__dict__.get("_at")
        if at is None or name not in _SPAN_FIELDS:
            raise AttributeError(f"'SourceSpan' object has no attribute {name!r}")
        reader, i = at
        self.__dict__.update(zip(_SPAN_FIELDS, reader.where(i)))
        del self.__dict__["_at"]
        return self.__dict__[name]

    def __getstate__(self):
        # Copies and pickles hold the fields, not the reader.
        return {name: getattr(self, name) for name in _SPAN_FIELDS}

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


_SPAN_FIELDS = tuple(f.name for f in fields(SourceSpan))

# The span of a node or diagnostic that no source text gave a place.
NO_SPAN = SourceSpan("<input>", 0, 0, 1, 1)


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
    span: SourceSpan = NO_SPAN

    def __str__(self):
        return f"{self.span}: error: {self.message} [{self.code}]"


class FgError(Exception):
    """Raised for unrecoverable errors carrying one or more diagnostics.
    The message is formatted when read, so an error that is caught and
    dropped works out none of its spans."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, Diagnostic):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__(self.diagnostics)

    def __str__(self):
        return "; ".join(str(d) for d in self.diagnostics)


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
    """The tokens of one source text, read by index.

    A token is its string, read with the patterns a reader's `lexicon`
    makes: `tokens` lists them, ending with EOF, and `kinds` gives each
    distinct one its kind.  A token is named by its index: a reader's rules
    take the index of the token they start at and return what they read
    with the index after it.  Offsets, lines and columns are worked out only
    when a field of a span is first read.
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

    @cached_property
    def _ends(self):
        return list(accumulate(map(len, self.CHUNKS.findall(self.text))))

    @cached_property
    def _line_starts(self):
        return [0] + [m.end() for m in re.finditer("\n", self.text)]

    def span(self, i):
        """The span of token `i`, worked out when a field of it is first
        read."""
        span = object.__new__(SourceSpan)
        span.__dict__["_at"] = self, i
        return span

    def where(self, i):
        """The fields of the span of token `i`."""
        end = self._ends[i]
        start = end - len(self.tokens[i])
        starts = self._line_starts
        line = bisect_right(starts, start)
        return self.filename, start, end, line, start - starts[line - 1] + 1

    def number(self, i):
        """The value of the integer literal at token `i`, which must not
        exceed INT_MAX."""
        digits = self.tokens[i].lstrip("0") or "0"
        if len(digits) > 19 or int(digits) > INT_MAX:  # INT_MAX has 19 digits
            self.fail("integer literal out of range", i)
        return int(digits)

    def expect_at(self, i, text):
        """The index after token `i`, which must be `text`."""
        if self.tokens[i] != text:
            self.fail_found(f"expected {text!r}", i)
        return i + 1

    def fail(self, msg, i):
        """Raise a syntax error at token `i`."""
        raise FgError(Diagnostic(SYNTAX, msg, self.span(i)))

    def fail_found(self, msg, i):
        """Raise a syntax error at token `i` that names it."""
        self.fail(f"{msg}, found {self.tokens[i]!r}", i)
