"""Peano numerals: step counts of both interpreters on large terms, and
deep values that stay within fuel."""

import pytest

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
