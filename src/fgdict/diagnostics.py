"""Source spans and diagnostics shared by the parser, checker and translator."""

from __future__ import annotations

from dataclasses import dataclass, field


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
UNIMPLEMENTED_IFACE = "unimplemented-iface"
DUP_BINDING = "dup-binding"


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    span: SourceSpan = field(default_factory=SourceSpan)
    severity: str = "error"

    def __str__(self):
        return f"{self.span}: {self.severity}: {self.message} [{self.code}]"


class FgError(Exception):
    """Raised for unrecoverable errors carrying one or more diagnostics."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, Diagnostic):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))
