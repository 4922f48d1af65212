"""A compiler workbench for a tiny structurally-typed Go-like language:
parser, type checker, small-step interpreter, dictionary-passing translation
to an untyped functional target language, and a differential harness that
checks, on whole final values, that translation preserves dynamic behavior.
"""

from .diagnostics import Diagnostic, FgError, SourceSpan
from .fg_ast import (
    CORE, EXT, Decls, Program, check_wellformed, is_subtype, methods, require_wellformed,
)
from .fg_parser import parse_expr, parse_program, print_expr, print_program
from .fg_interp import fg_eval, fg_step
from .tl_ast import TLProgram
from .tl_interp import run_program, tl_eval, tl_step
from .translate import Translation, require_translation, translate_program
from .relate import AGREE, BOTH_STUCK, BUDGET, DISAGREE, Verdict, diff_run, values_related
from .gen import GenConfig, gen_program, shrink

__all__ = [
    "AGREE", "BOTH_STUCK", "BUDGET", "CORE", "DISAGREE", "EXT",
    "Decls", "Diagnostic", "FgError", "GenConfig", "Program", "SourceSpan",
    "TLProgram", "Translation", "Verdict",
    "check_wellformed", "diff_run", "fg_eval", "fg_step", "gen_program",
    "is_subtype", "methods", "parse_expr", "parse_program", "print_expr",
    "print_program", "require_translation", "require_wellformed",
    "run_program", "shrink", "tl_eval", "tl_step", "translate_program",
    "values_related",
]

__version__ = "0.1.0"
