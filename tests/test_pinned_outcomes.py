"""Outcomes pinned across interpreter rewrites.

The digest below and the traces in tests/golden/ were recorded with the
original re-descend-and-rebuild small-step interpreters.  Any evaluator must
reproduce them byte for byte: step counts, stuck reasons and details,
printed final values and `--trace` text are semantics, not implementation.
"""

import glob
import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fgdict import fg_ast as fg, fg_interp, tl_ast as tl, tl_interp
from fgdict.cli import cli_dispatch
from fgdict.fg_parser import parse_program, print_expr
from fgdict.gen import GenConfig, gen_program
from fgdict.translate import translate_program

OUTCOME_DIGEST = "efdbfa970caf9dfd2b09173ff244a2f994b9d77e3a893581829bad3a6298f771"
FUELS = (10 ** 5, 3)
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _record(out, printer):
    """Kind, steps, reason, detail and printed value of an eval outcome."""
    value = getattr(out, "value", None)
    return repr((type(out).__name__, out.steps, getattr(out, "reason", None),
                 getattr(out, "detail", None),
                 None if value is None else printer(value)))


def _manifest_modes():
    manifest = json.loads(Path("corpus/manifest.json").read_text(encoding="utf-8"))
    return {f"corpus/{e['path']}": e["mode"] for e in manifest["files"]}


def _programs():
    for mode in (fg.CORE, fg.EXT):
        for seed in range(1000):
            yield f"{mode}:{seed}", gen_program(GenConfig(seed=seed, mode=mode))
    for path, mode in _manifest_modes().items():
        yield path, parse_program(Path(path).read_text(encoding="utf-8"), mode=mode, filename=path)


def outcome_digest():
    """sha256 over every pinned outcome, one line per evaluation."""
    h = hashlib.sha256()
    for name, prog in _programs():
        for fuel in FUELS:
            out = fg_interp.fg_eval(prog.table, prog.main, fuel)
            h.update(f"{name} fg {fuel} {_record(out, print_expr)}\n".encode())
        for hoist in (False, True):
            res = translate_program(prog, hoist_helpers=hoist)
            mu = res.tl_program.method_subst()
            for fuel in FUELS:
                out = tl_interp.tl_eval(mu, res.tl_program.main, fuel)
                h.update(f"{name} tl {hoist} {fuel} "
                         f"{_record(out, tl.print_expr)}\n".encode())
    return h.hexdigest()


def test_outcome_digest_is_pinned():
    assert outcome_digest() == OUTCOME_DIGEST


def _stderr_of(argv):
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        cli_dispatch(argv)
    return err.getvalue()


def traced_runs(tmp_dir):
    """{golden file name: stderr} of run-fg/run-tl --trace on the corpus."""
    modes = _manifest_modes()
    runs = {}
    for path in sorted(glob.glob("corpus/*.fg")):
        stem = os.path.splitext(os.path.basename(path))[0]
        ext = ["--ext"] if modes[path] == fg.EXT else []
        runs[f"{stem}.run-fg.txt"] = _stderr_of(["run-fg", path, "--trace"] + ext)
        tl_path = os.path.join(tmp_dir, f"{stem}.tl")
        cli_dispatch(["compile", path, "-o", tl_path] + ext)
        runs[f"{stem}.run-tl.txt"] = _stderr_of(["run-tl", tl_path, "--trace"])
    return runs


def test_traces_match_golden(tmp_path):
    runs = traced_runs(str(tmp_path))
    golden = {}
    for p in glob.glob(os.path.join(GOLDEN_DIR, "*.txt")):
        with open(p, encoding="utf-8") as f:
            golden[os.path.basename(p)] = f.read()
    assert sorted(runs) == sorted(golden)
    for name, text in runs.items():
        assert text == golden[name], name
