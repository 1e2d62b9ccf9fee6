"""The whole pipeline on generated loop-free MiniImp programs.

Each program has one or two inputs in [-3, 3], a local `t` and `if`/`else`
nested up to two deep; its expressions range over `+ - * / %`.  A guard is
a comparison, the negation of one, or `&&` or `||` over two comparisons.
Three properties must hold of each program:

(a) no mutant that TCE calls equivalent is killable;
(b) the members of a duplicate group give the same outcome on every input;
(c) semu at PP=1.0, with budgets that do not bind, gives every killable
    kept mutant a test of its own that kills it.

The program and each of its mutants also have the shape that
`conftest.validate_lts` checks.

Run as a script with `src` on `PYTHONPATH`, `python tests/test_generated.py
SEED N` checks N programs drawn from `random.Random(SEED)` and prints the
number of programs that break each property, with the number of killable
kept mutants.
"""

import math
import random
import sys

from hypothesis import given, settings, strategies as st

from mutkill import interp as I
from mutkill import lts as L
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import symex as X

import conftest as C

MAX_NESTING = 2


def expression(rng, names, depth: int = 2) -> str:
    if depth == 0 or rng.randint(0, 2) == 0:
        return rng.choice(names + names + ["0", "1", "2", "3"])
    left, op = expression(rng, names, depth - 1), rng.choice("+-*/%")
    return f"({left} {op} {expression(rng, names, depth - 1)})"


def comparison(rng, names) -> str:
    left, op = expression(rng, names, 1), rng.choice(("<", "<=", ">", ">=", "==", "!="))
    return f"{left} {op} {expression(rng, names, 1)}"


def guard(rng, names) -> str:
    shape = rng.choice(("cmp", "cmp", "&&", "||", "!"))
    if shape == "cmp":
        return comparison(rng, names)
    if shape == "!":
        return f"!({comparison(rng, names)})"
    return f"{comparison(rng, names)} {shape} {comparison(rng, names)}"


def block(rng, names, nesting: int, indent: str) -> list:
    lines = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("assign", "assign", "output", "if") if nesting < MAX_NESTING
                          else ("assign", "assign", "output"))
        if kind == "assign":
            lines.append(f"{indent}{rng.choice(names)} = {expression(rng, names)};")
        elif kind == "output":
            lines.append(f"{indent}output {expression(rng, names)};")
        else:
            lines.append(f"{indent}if ({guard(rng, names)}) {{")
            lines += block(rng, names, nesting + 1, indent + "  ")
            lines.append(f"{indent}}} else {{")
            lines += block(rng, names, nesting + 1, indent + "  ")
            lines.append(f"{indent}}}")
    return lines


def program(rng) -> str:
    """A program text; `rng` is a `random.Random` or `Draws`, of which it
    uses `choice` and `randint`."""
    inputs = ["x", "y"][:rng.randint(1, 2)]
    names = inputs + ["t"]
    return "\n".join(
        [f"input {n}: int in [-3, 3];" for n in inputs]
        + ["fn main() {", f"  var t = {expression(rng, inputs, 1)};"]
        + block(rng, names, 0, "  ")
        + ["  output t;", "}", ""])


class Draws:
    """`choice` and `randint` drawn by hypothesis, which can then shrink a
    program choice by choice."""

    def __init__(self, draw) -> None:
        self.draw = draw

    def choice(self, seq):
        return self.draw(st.sampled_from(seq))

    def randint(self, lo: int, hi: int) -> int:
        return self.draw(st.integers(lo, hi))


def build(text: str):
    """(lts, tce report, meta-mutant) of the program `text`."""
    lts = L.lower_to_lts(P.parse_text(text))
    mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
    return lts, M.tce_filter(lts, mutants), M.build_meta_mutant(lts, mutants)


def equivalent_but_killable(text: str) -> set:
    """(a): the mutants TCE calls equivalent that some input kills."""
    _, tce, meta = build(text)
    return I.killable_mutants(meta, tce.equivalent)


def unlike_duplicates(text: str) -> list:
    """(b): the duplicate groups whose members differ on some input."""
    lts, tce, meta = build(text)
    return [group for group in tce.duplicate_groups
            if any(len({I.run_concrete(meta, m, test).outcome() for m in group}) > 1
                   for test in I.all_inputs(lts))]


def missed(text: str) -> tuple:
    """(c): (the killable kept mutants that get no test of their own that
    kills them, the number of killable kept mutants)."""
    _, tce, meta = build(text)
    kept = tce.kept()
    killable = I.killable_mutants(meta, kept)
    cfg = X.Config(pp=1.0, max_states=200000, budget_seconds=math.inf)
    tests, _ = X.explore(meta, kept, [], cfg)
    killed = {t.mutant_id for t in tests if t.mutant_id in killable and I.outcome_cell(
        I.run_concrete(meta, 0, t.valuation()),
        I.run_concrete(meta, t.mutant_id, t.valuation())) == "K"}
    return killable - killed, len(killable)


@st.composite
def programs(draw) -> str:
    return program(Draws(draw))


# (a) and (b) replay without exploring, and take more examples: at 50,
# none of the programs drawn divides by a term that normalization erases
gate = settings(max_examples=50, deadline=None, derandomize=True)
replay_gate = settings(gate, max_examples=200)


@given(programs())
@replay_gate
def test_no_equivalent_mutant_is_killable(text):
    assert not equivalent_but_killable(text), text


@given(programs())
@replay_gate
def test_duplicates_give_equal_outcomes(text):
    assert not unlike_duplicates(text), text


@given(programs())
@replay_gate
def test_programs_and_mutants_have_the_lts_shape(text):
    _, _, meta = build(text)
    for k in (0, *meta.mutants):
        C.validate_lts(meta.program(k))


@given(programs())
@gate
def test_every_killable_kept_mutant_gets_a_killing_test_of_its_own(text):
    assert not missed(text)[0], text


if __name__ == "__main__":
    seed, n = (int(a) for a in sys.argv[1:3])
    rng = random.Random(seed)
    counts = {"a": 0, "b": 0, "c": 0}
    killable = 0
    for _ in range(n):
        text = program(rng)
        counts["a"] += bool(equivalent_but_killable(text))
        counts["b"] += bool(unlike_duplicates(text))
        misses, k = missed(text)
        counts["c"] += bool(misses)
        killable += k
    print(f"seed {seed}: {n} programs, {killable} killable kept mutants; programs "
          + ", ".join(f"breaking ({p}): {c}" for p, c in counts.items()))
