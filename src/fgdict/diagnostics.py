"""Source spans and diagnostics shared by the parsers, checker and
translator, the token reader and operator table both parsers and both
printers are built on, the bottom-up tree rebuild the substitutions and
value builders share, and the collector pause the passes run under."""

from __future__ import annotations

import gc
import re
from bisect import bisect_right
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cached_property, wraps


@dataclass(frozen=True)  # not a `record`: a lazy span fills its slots on first read
class SourceSpan:
    """Where a token is in a file: its offsets and the line and column of
    its first character.  `TokenReader.span` makes one that fills only its
    `_at` slot, with its reader and token index; when a field is first read,
    `__getattr__` works out all five, fills their slots and clears `_at`.
    So the fields have no class-level defaults, which would be read instead,
    and copies and pickles are made from the fields (`__reduce__`)."""

    __slots__ = ("file", "start", "end", "line", "column", "_at")

    file: str
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start must not exceed end")

    def __getattr__(self, name):
        # Reached only for an empty slot or a name no span has: a field of a
        # span not yet worked out reads `_at`, which only such a span holds.
        if name not in _SPAN_FIELDS:
            raise AttributeError(f"'SourceSpan' object has no attribute {name!r}")
        reader, i = self._at
        for set_field, value in zip(_SET_FIELDS, reader.where(i)):
            set_field(self, value)
        _DEL_AT(self)
        return getattr(self, name)

    def __reduce__(self):
        return SourceSpan, tuple([getattr(self, name) for name in _SPAN_FIELDS])

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}"


_SPAN_FIELDS = tuple(f.name for f in fields(SourceSpan))
_SET_FIELDS = tuple(getattr(SourceSpan, name).__set__ for name in _SPAN_FIELDS)
_SET_AT, _DEL_AT = SourceSpan._at.__set__, SourceSpan._at.__delete__


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """`cls` as a frozen, slotted dataclass whose `__init__` stores each
    field through its slot's member descriptor.  The `__init__` a frozen
    dataclass makes goes through `object.__setattr__` once per field, which
    costs nearly twice as much; equality, hashing, repr, `replace` and
    pickling stay the dataclass's own.  Assigning or deleting any attribute
    raises `FrozenInstanceError` from a `__setattr__` and `__delattr__` of
    record's own: the dataclass's refer to the class that `slots=True`
    replaces, which would keep it alive.  A class with a `__post_init__` or
    a `default_factory` field is refused, since this `__init__` would skip
    them."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    if "__weakref__" in cls.__dict__:  # 3.10 copies in that class's descriptor
        del cls.__weakref__
    fs = fields(cls)
    if hasattr(cls, "__post_init__") or any(f.default_factory is not MISSING for f in fs):
        raise TypeError(f"record {cls.__name__} may have no __post_init__ or default_factory")
    ns = {f"_set_{f.name}": getattr(cls, f.name).__set__ for f in fs}
    ns.update((f"_default_{f.name}", f.default) for f in fs if f.default is not MISSING)
    params = ", ".join(f.name if f.default is MISSING else f"{f.name}=_default_{f.name}"
                       for f in fs)
    body = "".join(f"\n    _set_{f.name}(self, {f.name})" for f in fs)
    exec(f"def __init__(self, {params}):{body}", ns)
    cls.__init__ = ns["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


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


@record
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


def collector_paused(fn):
    """`fn` run with the cyclic garbage collector disabled.  No pass makes a
    reference cycle, so reference counting frees every tree it builds, and
    the collector's generation passes would only rescan trees still being
    built (tests/test_collector.py).  The collector is enabled again after
    the call only if it was enabled before, so nested passes, a caller's own
    `gc.disable()` and an exception leave it as they found it."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


# The last token of every text.
EOF = ""

INT_MAX = 2 ** 63 - 1  # the largest value of Go's int


def lexicon(comment, **kinds):
    """The LEX and KINDS patterns of a TokenReader, for comments that
    `comment` matches and one pattern per token kind, tried in order.  Any
    other character is a token of kind `bad`, and EOF is of kind `eof`.  A
    match of LEX is the whitespace and comments before the next token and
    that token, or nothing at the end of the text: it captures the token, so
    its `findall` gives the tokens and then EOF, and each match ends where
    its token ends.  KINDS names the kind of a token."""
    alts = "|".join(kinds.values())
    kind = re.compile("|".join(f"(?P<{k}>{p})" for k, p in kinds.items())
                      + r"|(?P<bad>.)|(?P<eof>\Z)", re.DOTALL)
    return re.compile(rf"\s*(?:(?:{comment})\s*)*({alts}|.)?", re.DOTALL), kind


class TokenReader:
    """The tokens of one source text, read by index.

    A token is its string, read with the patterns a reader's `lexicon`
    makes: `tokens` lists them, ending with EOF, and `kinds` gives each
    distinct one its kind.  A token is named by its index: a reader's rules
    take the index of the token they start at and return what they read
    with the index after it.  Offsets, lines and columns are worked out only
    when a field of a span is first read.
    """

    LEX = KINDS = None

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
        return [m.end() for m in self.LEX.finditer(self.text)]

    @cached_property
    def _line_starts(self):
        return [0] + [m.end() for m in re.finditer("\n", self.text)]

    def span(self, i):
        """The span of token `i`, worked out when a field of it is first
        read."""
        span = object.__new__(SourceSpan)
        _SET_AT(span, (self, i))
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
