"""A compiler workbench for a tiny structurally-typed Go-like language:
parser, type checker, small-step interpreter, dictionary-passing translation
to an untyped functional target language, and a differential harness that
checks, at bounded depth, that translation preserves dynamic behavior.
"""

from .diagnostics import Diagnostic, FgError, SourceSpan
from .fg_ast import (
    CORE, EXT, Decls, Program, check_wellformed, is_subtype, method_lookup,
    methods, require_wellformed,
)
from .fg_parser import parse_expr, parse_program, print_expr, print_program
from .fg_interp import fg_eval, fg_step
from .tl_ast import TLProgram
from .tl_interp import run_program, tl_eval, tl_step
from .translate import (
    Translation, require_translation, translate_method, translate_program,
)
from .relate import (
    AGREE, BOTH_STUCK, BUDGET, DISAGREE, Verdict, diff_run, harvest_related,
    methods_related, monotonicity_violations, values_related,
)
from .gen import GenConfig, gen_program, shrink
from .cli import cli_dispatch

__all__ = [
    "AGREE", "BOTH_STUCK", "BUDGET", "CORE", "DISAGREE", "EXT",
    "Decls", "Diagnostic", "FgError", "GenConfig", "Program", "SourceSpan",
    "TLProgram", "Translation", "Verdict",
    "check_wellformed", "cli_dispatch", "diff_run",
    "fg_eval", "fg_step", "gen_program", "harvest_related", "is_subtype",
    "method_lookup", "methods", "methods_related", "monotonicity_violations",
    "parse_expr", "parse_program", "print_expr", "print_program",
    "require_translation", "require_wellformed", "run_program", "shrink",
    "tl_eval", "tl_step", "translate_method", "translate_program",
    "values_related",
]

__version__ = "0.1.0"
