"""Peano numerals: step counts of both interpreters on large terms, and
deep values that stay within fuel."""

import os
import subprocess
import sys
import time

import pytest

from fgdict.cli import EXIT_OK, cli_dispatch
from fgdict.fg_parser import parse_program, print_expr
from fgdict.relate import AGREE, diff_run

NAT = """
package main
type Nat interface {
    add(m Nat) Nat
    mul(m Nat) Nat
}
type Z struct {}
type S struct { pred Nat }
func (this Z) add(m Nat) Nat { return m }
func (this Z) mul(m Nat) Nat { return Z{} }
func (this S) add(m Nat) Nat { return S{this.pred.add(m)} }
func (this S) mul(m Nat) Nat { return m.add(this.pred.mul(m)) }
func main() { _ = %s }
"""


def numeral(n):
    return "S{" * n + "Z{}" + "}" * n


@pytest.mark.parametrize("n", [10, 160, 320])
def test_add_step_counts(n):
    prog = parse_program(NAT % f"{numeral(n)}.add({numeral(n)})")
    v = diff_run(prog)
    assert v.kind == AGREE
    assert print_expr(v.fg_value) == numeral(2 * n)
    assert (v.fg_steps, v.tl_steps) == (2 * n + 1, 9 * n + 5)


def count_s(v):
    """k for the FG value S^k(Z), read without recursion."""
    k = 0
    while v.type_name == "S":
        v, k = v.args[0], k + 1
    assert v.type_name == "Z" and not v.args
    return k


# n = 100 builds a value deeper than Python's recursion limit.
@pytest.mark.parametrize("n, fg_steps, tl_steps",
                         [(24, 1225, 4350), (100, 20301, 71306)])
def test_mul_step_counts(n, fg_steps, tl_steps):
    prog = parse_program(NAT % f"{numeral(n)}.mul({numeral(n)})")
    v = diff_run(prog)
    assert v.kind == AGREE
    assert count_s(v.fg_value) == n * n
    assert (v.fg_steps, v.tl_steps) == (fg_steps, tl_steps)


def test_deep_value_is_not_a_budget_verdict():
    # 1100 nested constructors evaluate in 0 FG steps and one upcast per
    # level on the TL side, far below the default fuel.
    prog = parse_program(NAT % numeral(1100))
    v = diff_run(prog)
    assert v.kind == AGREE
    assert (v.fg_steps, v.tl_steps) == (0, 1100)


def test_diff_prints_a_value_deeper_than_the_recursion_limit(tmp_path, capsys):
    f = tmp_path / "mul100.fg"
    f.write_text(NAT % f"{numeral(100)}.mul({numeral(100)})", encoding="utf-8")
    assert cli_dispatch(["diff", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("agree: S{S{")
    assert out.count("S{") == 100 * 100


def test_run_tl_prints_a_value_deeper_than_the_recursion_limit(tmp_path, capsys):
    f, out = tmp_path / "mul100.fg", tmp_path / "mul100.tl"
    f.write_text(NAT % f"{numeral(100)}.mul({numeral(100)})", encoding="utf-8")
    assert cli_dispatch(["compile", str(f), "-o", str(out)]) == EXIT_OK
    assert cli_dispatch(["run-tl", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "K_Nat (K_S (" * 10000 + \
        "K_Nat K_Z add_Z mul_Z" + ")) add_S mul_S" * 10000 + "\n"


def test_relation_fuel_deeper_than_the_recursion_limit(tmp_path, capsys):
    f = tmp_path / "mul100.fg"
    f.write_text(NAT % f"{numeral(100)}.mul({numeral(100)})", encoding="utf-8")
    assert cli_dispatch(["diff", str(f), "--rel-fuel", "5000"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("agree: S{S{")


# Runs in a fresh interpreter, at Python's default recursion limit, on a
# program whose main is a numeral 20,000 levels deep and one of whose
# methods returns one 2,000 deep.  Deep trees are compared by their printed
# text or by `methods_related`: dataclass `==` recurses.
DEEP_SCRIPT = """
import contextlib, io, sys
from fgdict import tl_ast as tl
from fgdict.cli import cli_dispatch
from fgdict.fg_parser import parse_program, print_program
from helpers import methods_related

limit = sys.getrecursionlimit()
fg_file, tl_file, n = sys.argv[1], sys.argv[2], int(sys.argv[3])

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(list(argv))
    assert code == 0, (argv, code, err.getvalue())
    return out.getvalue()

def compile_tl(*flags):
    run("compile", fg_file, *flags, "-o", tl_file)
    with open(tl_file, encoding="utf-8") as f:
        text = f.read()
    prog = tl.parse_program(text)
    assert tl.validate_program(prog) == []
    assert tl.print_program(prog) == text
    return prog

with open(fg_file, encoding="utf-8") as f:
    decls = parse_program(f.read()).table
assert run("check", fg_file) == "ok: main has type S\\n"
assert methods_related(decls, compile_tl())
compile_tl("--hoist-helpers")
assert run("run-tl", tl_file) == (
    "K_S (" + "K_Nat (K_S (" * (n - 1) + "K_Nat K_Z add_Z mul_Z" +
    ")) add_S mul_S" * (n - 1) + ")\\n")
numeral = "S{" * n + "Z{}" + "}" * n
assert run("diff", fg_file).startswith(f"agree: {numeral} (")
text = run("parse", fg_file)
assert print_program(parse_program(text)) == text
assert sys.getrecursionlimit() == limit
"""


def test_deep_numeral_at_the_default_recursion_limit(tmp_path):
    n = 20000
    fg_file = tmp_path / "deep.fg"
    fg_file.write_text((NAT % numeral(n)).replace(
        "func main", f"func (this Z) deep() Nat {{ return {numeral(2000)} }}\nfunc main"),
        encoding="utf-8")
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", DEEP_SCRIPT, str(fg_file),
                    str(tmp_path / "deep.tl"), str(n)],
                   env=env, check=True, timeout=60)
    assert time.monotonic() - start < 10
