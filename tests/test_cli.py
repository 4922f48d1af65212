"""Command-line interface: subcommands, flags, exit codes, JSON output."""

import json
import os
import subprocess
import sys

import pytest

from fgdict import fg_ast as fg, fg_interp
from fgdict.cli import (
    EXIT_BUDGET, EXIT_DIAGNOSTICS, EXIT_DISAGREE, EXIT_OK, EXIT_USAGE,
    cli_dispatch,
)
from fgdict.fg_parser import parse_program
from fgdict.gen import GenConfig, gen_program
from fgdict.relate import program_hash

EQ = "corpus/equality.fg"

BAD_FG4 = """
package main
type A struct {}
func (this A) m() A { return A{} }
func (this A) m() A { return this }
func main() { _ = A{} }
"""

LOOP = """
package main
type A struct {}
func (this A) loop() A { return this.loop() }
func main() { _ = A{}.loop() }
"""


def test_parse_echoes_canonical_form(capsys):
    assert cli_dispatch(["parse", EQ, "--ext"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("type Eq interface")
    assert "func main() {" in out


def test_check_ok(capsys):
    assert cli_dispatch(["check", EQ, "--ext"]) == EXIT_OK
    assert "bool" in capsys.readouterr().out


def test_check_reports_diagnostics(tmp_path, capsys):
    f = tmp_path / "bad.fg"
    f.write_text(BAD_FG4, encoding="utf-8")
    assert cli_dispatch(["check", str(f)]) == EXIT_DIAGNOSTICS
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "fg4-dup-method" in err


def test_compile_writes_file(tmp_path, capsys):
    out = tmp_path / "eq.tl"
    assert cli_dispatch(["compile", EQ, "--ext", "-o", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    assert text.startswith("let")
    assert "eq_Pair" in text


def test_compile_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.tl", tmp_path / "b.tl"
    cli_dispatch(["compile", EQ, "--ext", "-o", str(a), "--hoist-helpers"])
    cli_dispatch(["compile", EQ, "--ext", "-o", str(b), "--hoist-helpers"])
    assert a.read_bytes() == b.read_bytes()


def test_run_fg(capsys):
    assert cli_dispatch(["run-fg", EQ, "--ext"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "true"


def test_run_tl_reproduces_diff_value(tmp_path, capsys):
    out = tmp_path / "eq.tl"
    cli_dispatch(["compile", EQ, "--ext", "-o", str(out)])
    capsys.readouterr()
    assert cli_dispatch(["run-tl", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "true"


def test_run_tl_has_no_mode(tmp_path, capsys):
    # TL text has no core or extension mode, so only FG readers take --ext.
    out = tmp_path / "eq.tl"
    cli_dispatch(["compile", EQ, "--ext", "-o", str(out)])
    assert cli_dispatch(["run-tl", str(out), "--ext"]) == EXIT_USAGE
    assert "unrecognized arguments: --ext" in capsys.readouterr().err


def test_run_tl_reports_a_duplicate_binding_where_it_is(tmp_path, capsys):
    f = tmp_path / "dup.tl"
    f.write_text("let\n  f = \\x -> x;\n  f = \\y -> y\nin\nf 1\n", encoding="utf-8")
    assert cli_dispatch(["run-tl", str(f)]) == EXIT_DIAGNOSTICS
    assert capsys.readouterr().err == \
        f"{f}:3:3: error: duplicate let binding f [dup-binding]\n"


def test_run_tl_reports_each_validation_problem_on_a_line(tmp_path, capsys):
    # A TL file that reads but fails `validate_program` gets one
    # `FILE: where: problem` line per problem, with no position.
    f = tmp_path / "bad.tl"
    f.write_text("let\n  f = \\x -> y\nin\nz\n", encoding="utf-8")
    assert cli_dispatch(["run-tl", str(f)]) == EXIT_DIAGNOSTICS
    assert capsys.readouterr().err == \
        f"{f}: main: free variable z\n{f}: f: free variable y\n"


def test_run_fg_trace(capsys):
    assert cli_dispatch(["run-fg", EQ, "--ext", "--trace"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "[1]" in err and "fg-call" in err


def test_run_fg_budget(tmp_path):
    f = tmp_path / "loop.fg"
    f.write_text(LOOP, encoding="utf-8")
    assert cli_dispatch(["run-fg", str(f), "--steps", "10"]) == EXIT_BUDGET


def test_diff_agree(capsys):
    assert cli_dispatch(["diff", EQ, "--ext"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("agree: true")


def test_diff_json(capsys):
    assert cli_dispatch(["diff", EQ, "--ext", "--json"]) == EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["v"] == 1
    assert rec["verdict"] == "agree"


def test_diff_both_stuck_exits_zero(capsys):
    assert cli_dispatch(["diff", "corpus/stuck/assert01.fg"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("both-stuck")


def test_diff_budget_exit_code(tmp_path):
    f = tmp_path / "loop.fg"
    f.write_text(LOOP, encoding="utf-8")
    assert cli_dispatch(["diff", str(f), "--steps", "10"]) == EXIT_BUDGET


PAIR = """
package main
type A struct {}
type B struct {}
func main() { _ = A{} }
"""


def test_diff_reports_a_disagreement(tmp_path, capsys, monkeypatch):
    # Break the FG side, so that its value is unrelated to TL's.
    out = fg_interp.Value(fg.StructLit("B", ()), 0)
    monkeypatch.setattr(fg_interp, "fg_eval", lambda decls, e, fuel, trace=None: out)
    f = tmp_path / "pair.fg"
    f.write_text(PAIR, encoding="utf-8")
    assert cli_dispatch(["diff", str(f)]) == EXIT_DISAGREE
    assert capsys.readouterr().out == \
        "disagree: values unrelated at type A (fg 0 steps, tl 0 steps)\n"
    assert cli_dispatch(["diff", str(f), "--json"]) == EXIT_DISAGREE
    rec = json.loads(capsys.readouterr().out)
    assert (rec["verdict"], rec["detail"]) == ("disagree", "values unrelated at type A")


def test_diff_reports_the_stuck_side(tmp_path, capsys, monkeypatch):
    out = fg_interp.StuckOutcome(fg_interp.NO_METHOD, "no method m on A", 2)
    monkeypatch.setattr(fg_interp, "fg_eval", lambda decls, e, fuel, trace=None: out)
    f = tmp_path / "pair.fg"
    f.write_text(PAIR, encoding="utf-8")
    detail = "FG side stuck (no-method: no method m on A), other side produced a value"
    assert cli_dispatch(["diff", str(f)]) == EXIT_DISAGREE
    assert capsys.readouterr().out == f"disagree: {detail} (fg 2 steps, tl 0 steps)\n"
    assert cli_dispatch(["diff", str(f), "--json"]) == EXIT_DISAGREE
    rec = json.loads(capsys.readouterr().out)
    assert (rec["verdict"], rec["detail"], rec["fg-reason"]) == ("disagree", detail, "no-method")
    assert "tl-reason" not in rec


def test_fuzz_keeps_failing_programs(tmp_path, capsys, monkeypatch):
    out = fg_interp.StuckOutcome(fg_interp.NO_METHOD, "broken", 0)
    monkeypatch.setattr(fg_interp, "fg_eval", lambda decls, e, fuel, trace=None: out)
    for mode, flags, tag in [(fg.CORE, [], ""), (fg.EXT, ["--ext"], "ext-")]:
        keep = tmp_path / mode
        argv = ["fuzz", "--count", "1", "--seed", "7", "--keep-failures", str(keep), *flags]
        assert cli_dispatch(argv) == EXIT_DISAGREE
        assert capsys.readouterr().out.startswith("seed 7: disagree: ")
        prog = gen_program(GenConfig(seed=7, mode=mode))
        [name] = os.listdir(keep)
        assert name == f"seed-7-{tag}{program_hash(prog)}.fg"
        assert parse_program((keep / name).read_text(encoding="utf-8"), mode=mode) == prog


def test_fuzz_text_and_summary(capsys):
    assert cli_dispatch(["fuzz", "--count", "5", "--seed", "0"]) == EXIT_OK
    got = capsys.readouterr()
    assert got.out.count("seed ") == 5
    assert "5 programs" in got.err


def test_fuzz_json_stream(capsys):
    assert cli_dispatch(["fuzz", "--count", "3", "--seed", "2", "--json"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert rec["v"] == 1 and "verdict" in rec


def test_fuzz_is_deterministic(capsys):
    cli_dispatch(["fuzz", "--count", "10", "--seed", "4", "--json"])
    a = capsys.readouterr().out
    cli_dispatch(["fuzz", "--count", "10", "--seed", "4", "--json"])
    b = capsys.readouterr().out
    assert a == b


def test_usage_errors_exit_64(capsys):
    assert cli_dispatch([]) == EXIT_USAGE
    assert cli_dispatch(["frobnicate"]) == EXIT_USAGE
    assert cli_dispatch(["diff"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["diff", EQ, "--ext", "--steps", "-1"],
    ["diff", EQ, "--ext", "--rel-fuel", "-1"],
    ["run-fg", EQ, "--ext", "--steps", "-5"],
    ["run-tl", "eq.tl", "--steps", "-1"],
    ["fuzz", "--count", "-1"],
])
def test_negative_fuel_is_a_usage_error(argv, capsys):
    assert cli_dispatch(argv) == EXIT_USAGE
    assert "must be non-negative" in capsys.readouterr().err


def test_method_with_many_parameters(tmp_path, capsys):
    # Tuples have no arity cap: 33 parameters make a Tup33 pattern.
    params = ", ".join(f"p{i} A" for i in range(33))
    args = ", ".join(["A{}"] * 33)
    f = tmp_path / "wide.fg"
    f.write_text("package main\ntype A struct {}\n"
                 f"func (this A) m({params}) A {{ return this }}\n"
                 f"func main() {{ _ = A{{}}.m({args}) }}\n", encoding="utf-8")
    assert cli_dispatch(["check", str(f)]) == EXIT_OK
    assert cli_dispatch(["diff", str(f)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == \
        "agree: A{} (fg 1 steps, tl 4 steps)"


def test_run_tl_wide_tuple(tmp_path, capsys):
    text = "(" + ", ".join(["K_A"] * 40) + ")\n"
    f = tmp_path / "wide.tl"
    f.write_text(text, encoding="utf-8")
    assert cli_dispatch(["run-tl", str(f)]) == EXIT_OK
    assert capsys.readouterr().out == text


def test_missing_file_is_a_diagnostic(capsys):
    assert cli_dispatch(["parse", "no/such/file.fg"]) == EXIT_DIAGNOSTICS


@pytest.mark.parametrize("command", ["check", "run-tl"])
@pytest.mark.parametrize("content", [b"func main() { _ = A{} }\xff\n", None],
                         ids=["not-utf-8", "missing"])
def test_unreadable_source_is_a_one_line_diagnostic(command, content, tmp_path, capsys):
    f = tmp_path / "src.txt"
    if content is not None:
        f.write_bytes(content)
    assert cli_dispatch([command, str(f)]) == EXIT_DIAGNOSTICS
    err = capsys.readouterr().err
    assert str(f) in err and "internal error" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command, text, out", [
    ("check", "package main\ntype A struct {}\nfunc main() { _ = A{} }\n",
     ("ok: main has type A\n", "")),
    ("run-tl", "K_P 1\n", ("K_P 1\n", "-- 0 steps\n")),
], ids=["check", "run-tl"])
def test_a_byte_order_mark_starts_a_file_unread(command, text, out, tmp_path, capsys):
    f = tmp_path / "src.txt"
    f.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert cli_dispatch([command, str(f)]) == EXIT_OK
    assert capsys.readouterr() == out
    # Only the first mark is dropped, and positions count from after it; a
    # mark anywhere else is read as a character.
    eol = text.index("\n")
    for at, where in [(0, "1:1"), (eol, f"1:{eol + 1}")]:
        f.write_bytes(("\ufeff" + text[:at] + "\ufeff" + text[at:]).encode())
        assert cli_dispatch([command, str(f)]) == EXIT_DIAGNOSTICS
        assert capsys.readouterr().err == \
            f"{f}:{where}: error: unexpected character '\\ufeff' [syntax]\n"


def test_core_mode_rejects_ext_syntax(tmp_path, capsys):
    # equality.fg uses primitives, so core-mode parsing must fail cleanly.
    assert cli_dispatch(["parse", EQ]) == EXIT_DIAGNOSTICS


def _python(*args):
    """Run a fresh interpreter on `args` with the package on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, encoding="utf-8", timeout=60)


def test_run_as_module_is_quiet():
    res = _python("-m", "fgdict.cli", "parse", "corpus/dispatch.fg")
    assert (res.returncode, res.stderr) == (EXIT_OK, "")
    assert res.stdout.startswith("type ")


def test_import_leaves_the_recursion_limit_alone():
    res = _python("-c", "import sys; before = sys.getrecursionlimit(); import fgdict; "
                        "print(before, sys.getrecursionlimit())")
    before, after = res.stdout.split()
    assert res.returncode == 0 and before == after


def test_package_runs_as_a_module():
    res = _python("-m", "fgdict", "diff", "--ext", "corpus/arith.fg")
    assert (res.returncode, res.stderr) == (EXIT_OK, "")
    assert res.stdout.startswith("agree: ")


def test_import_leaves_the_collector_alone():
    # Compared before and after, not with fixed values: the defaults differ
    # by version (generation-0 threshold 700 or 2000; 3.12.1 starts with
    # frozen objects).
    state = "(gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())"
    res = _python("-c", f"import gc; before = {state}; import fgdict, fgdict.relate, "
                        f"fgdict.gen; print(before == {state}, before)")
    assert res.returncode == 0 and res.stdout.startswith("True ("), res.stdout + res.stderr
